include Qs_sim.Smr_cluster.Make (struct
  type t = Preplica.t

  type msg = Pmsg.t

  type config = Preplica.config

  type fault = Preplica.fault

  let n config = config.Preplica.n

  let setup config =
    let auth = Qs_crypto.Auth.create config.Preplica.n in
    fun ~me ~sim ~net_send ~on_execute ->
      Preplica.create config ~me ~auth ~sim ~net_send
        ~on_execute:(fun ~slot:_ request -> on_execute request)
        ()

  let stamp_threshold config = (2 * config.Preplica.f) + 1

  let commit_rule config = Qs_sim.Smr_cluster.At_least (stamp_threshold config)

  let receive = Preplica.receive

  let submit = Preplica.submit

  let executed = Preplica.executed

  let set_fault = Preplica.set_fault

  let write_key = Preplica.write_key

  let encode (m : Pmsg.t) = string_of_int m.sender ^ "|" ^ Pmsg.encode_body m.body
end)

let max_view t = Array.fold_left (fun acc r -> max acc (Preplica.view r)) 0 (replicas t)
