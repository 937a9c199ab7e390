include Qs_sim.Smr_cluster.Make (struct
  type t = Star_node.t

  type msg = Star_msg.t

  type config = Star_node.config

  type fault = Star_node.fault

  let n config = config.Star_node.n

  let setup config =
    let auth = Qs_crypto.Auth.create config.Star_node.n in
    fun ~me ~sim ~net_send ~on_execute ->
      Star_node.create config ~me ~auth ~sim ~net_send ~on_execute ()

  let stamp_threshold config = config.Star_node.n - config.Star_node.f

  let commit_rule _ = Qs_sim.Smr_cluster.Covers Star_node.quorum

  let receive = Star_node.receive

  let submit = Star_node.submit

  let executed = Star_node.executed

  let set_fault = Star_node.set_fault

  let write_key = Star_node.write_key

  let encode (m : Star_msg.t) = string_of_int m.sender ^ "|" ^ Star_msg.encode_body m.body
end)

let max_quorum_epoch t =
  Array.fold_left (fun acc node -> max acc (Star_node.quorum_epoch node)) 0 (replicas t)
