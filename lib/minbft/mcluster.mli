(** A MinBFT cluster in the simulator: the shared {!Qs_sim.Smr_cluster},
    committing once [f+1] replicas executed a request (the n−f = f+1 rule
    that the trusted USIG counters buy). *)

include
  Qs_sim.Smr_cluster.S
    with type replica = Mreplica.t
     and type msg = Mmsg.t
     and type request = Mmsg.request
     and type config = Mreplica.config
     and type fault = Mreplica.fault
