module Auth = Qs_crypto.Auth

type request = Qs_sim.Smr_cluster.request = { client : int; rid : int; op : string }

let encode_request = Qs_sim.Smr_cluster.encode_request

let digest_of ~view ~slot request =
  Qs_crypto.Sha256.digest_string (Printf.sprintf "BIND|%d|%d|%s" view slot (encode_request request))

type prepare = { pview : int; pslot : int; prequest : request; pui : Usig.ui }

type body =
  | Prepare of prepare
  | Commit of { cprepare : prepare; cui : Usig.ui }
  | Qsel of Qs_core.Msg.t

type t = { sender : Qs_core.Pid.t; body : body; signature : Auth.signature }

let hex = Qs_crypto.Sha256.hex

let encode_ui (ui : Usig.ui) =
  Printf.sprintf "%d:%d:%s" ui.Usig.origin ui.Usig.counter (hex ui.Usig.usig_sig)

let encode_prepare p =
  Printf.sprintf "P|%d|%d|%s|%s" p.pview p.pslot (encode_request p.prequest) (encode_ui p.pui)

let commit_digest p ~committer =
  Qs_crypto.Sha256.digest_string (Printf.sprintf "CMT|%d|%s" committer (encode_prepare p))

let encode_body = function
  | Prepare p -> "P:" ^ encode_prepare p
  | Commit { cprepare; cui } -> "C:" ^ encode_prepare cprepare ^ "|" ^ encode_ui cui
  | Qsel m -> "Q:" ^ Qs_core.Msg.encode m.Qs_core.Msg.update ^ "#" ^ hex m.Qs_core.Msg.signature

let seal auth ~sender body =
  { sender; body; signature = Auth.sign auth ~signer:sender (encode_body body) }

let verify auth t = Auth.verify auth ~signer:t.sender (encode_body t.body) t.signature

let tag = function
  | Prepare _ -> "PREPARE"
  | Commit _ -> "COMMIT"
  | Qsel _ -> "QSEL-UPDATE"
