(** A PBFT cluster in the simulator: the shared {!Qs_sim.Smr_cluster},
    committing once [2f+1] replicas executed a request. *)

include
  Qs_sim.Smr_cluster.S
    with type replica = Preplica.t
     and type msg = Pmsg.t
     and type request = Pmsg.request
     and type config = Preplica.config
     and type fault = Preplica.fault

val max_view : t -> int
