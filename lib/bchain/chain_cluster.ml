include Qs_sim.Smr_cluster.Make (struct
  type t = Chain_node.t

  type msg = Chain_msg.t

  type config = Chain_node.config

  type fault = Chain_node.fault

  let n config = config.Chain_node.n

  let setup config =
    let auth = Qs_crypto.Auth.create config.Chain_node.n in
    fun ~me ~sim ~net_send ~on_execute ->
      Chain_node.create config ~me ~auth ~sim ~net_send ~on_execute ()

  let stamp_threshold config = config.Chain_node.n - config.Chain_node.f

  let commit_rule _ = Qs_sim.Smr_cluster.Covers Chain_node.chain

  let receive = Chain_node.receive

  let submit = Chain_node.submit

  let executed = Chain_node.executed

  let set_fault = Chain_node.set_fault

  let write_key = Chain_node.write_key

  let encode (m : Chain_msg.t) =
    string_of_int m.sender ^ "|" ^ Chain_msg.encode_body m.body
end)

let current_chain t = Chain_node.chain (replica t 0)
