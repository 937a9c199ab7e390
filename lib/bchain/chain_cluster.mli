(** A chain-replication cluster in the simulator: the shared
    {!Qs_sim.Smr_cluster}, where a request commits once every member of
    some node's current chain executed it; commit latency is stamped at
    [n − f] executions. *)

include
  Qs_sim.Smr_cluster.S
    with type replica = Chain_node.t
     and type msg = Chain_msg.t
     and type request = Chain_msg.request
     and type config = Chain_node.config
     and type fault = Chain_node.fault

val current_chain : t -> Qs_core.Pid.t list
(** The chain at node 0 (for reporting). *)
