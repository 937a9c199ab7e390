include Qs_sim.Smr_cluster.Make (struct
  type t = Mreplica.t

  type msg = Mmsg.t

  type config = Mreplica.config

  type fault = Mreplica.fault

  let n config = config.Mreplica.n

  let setup config =
    let auth = Qs_crypto.Auth.create config.Mreplica.n in
    let usig_directory, usigs = Usig.setup ~n:config.Mreplica.n in
    fun ~me ~sim ~net_send ~on_execute ->
      Mreplica.create config ~me ~auth ~usig:usigs.(me) ~usig_directory ~sim ~net_send
        ~on_execute ()

  let stamp_threshold config = config.Mreplica.f + 1

  let commit_rule config = Qs_sim.Smr_cluster.At_least (stamp_threshold config)

  let receive = Mreplica.receive

  let submit = Mreplica.submit

  let executed = Mreplica.executed

  let set_fault = Mreplica.set_fault

  let write_key = Mreplica.write_key

  let encode (m : Mmsg.t) = string_of_int m.sender ^ "|" ^ Mmsg.encode_body m.body
end)
