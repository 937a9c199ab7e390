(** A star-topology cluster in the simulator: the shared
    {!Qs_sim.Smr_cluster}, where a request commits once every member of
    some node's current quorum executed it; commit latency is stamped at
    [n − f] executions. *)

include
  Qs_sim.Smr_cluster.S
    with type replica = Star_node.t
     and type msg = Star_msg.t
     and type request = Star_msg.request
     and type config = Star_node.config
     and type fault = Star_node.fault

val max_quorum_epoch : t -> int
(** Largest number of reconfigurations any node performed — the live O(f)
    metric of Theorem 9. *)
