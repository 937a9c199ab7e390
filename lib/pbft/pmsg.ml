module Auth = Qs_crypto.Auth

type request = Qs_sim.Smr_cluster.request = { client : int; rid : int; op : string }

let encode_request = Qs_sim.Smr_cluster.encode_request

let digest r = Qs_crypto.Sha256.digest_string (encode_request r)

type pre_prepare = { view : int; slot : int; request : request }

type signed_pre_prepare = { pp : pre_prepare; ppsig : Auth.signature }

type entry = {
  eview : int;
  eslot : int;
  erequest : request;
  ecommitted : bool;
  epsig : Auth.signature;
}

type body =
  | Pre_prepare of signed_pre_prepare
  | Prepare of { view : int; slot : int; pdigest : string }
  | Commit of { view : int; slot : int; cdigest : string }
  | View_change of { vview : int; vlog : entry list }
  | New_view of { nview : int; nlog : entry list }
  | Qsel of Qs_core.Msg.t

type t = { sender : Qs_core.Pid.t; body : body; signature : Auth.signature }

let hex = Qs_crypto.Sha256.hex

let encode_pre_prepare pp =
  Printf.sprintf "PP|%d|%d|%s" pp.view pp.slot (encode_request pp.request)

let sign_pre_prepare auth ~primary pp =
  { pp; ppsig = Auth.sign auth ~signer:primary (encode_pre_prepare pp) }

let verify_pre_prepare auth ~primary spp =
  Auth.verify auth ~signer:primary (encode_pre_prepare spp.pp) spp.ppsig

let encode_entry e =
  Printf.sprintf "E|%d|%d|%s|%b|%s" e.eview e.eslot (encode_request e.erequest)
    e.ecommitted (hex e.epsig)

let encode_body = function
  | Pre_prepare spp -> "PP:" ^ encode_pre_prepare spp.pp ^ "#" ^ hex spp.ppsig
  | Prepare { view; slot; pdigest } -> Printf.sprintf "P:%d|%d|%s" view slot (hex pdigest)
  | Commit { view; slot; cdigest } -> Printf.sprintf "C:%d|%d|%s" view slot (hex cdigest)
  | View_change { vview; vlog } ->
    Printf.sprintf "VC:%d|%s" vview (String.concat ";" (List.map encode_entry vlog))
  | New_view { nview; nlog } ->
    Printf.sprintf "NV:%d|%s" nview (String.concat ";" (List.map encode_entry nlog))
  | Qsel m -> "Q:" ^ Qs_core.Msg.encode m.Qs_core.Msg.update ^ "#" ^ hex m.Qs_core.Msg.signature

let seal auth ~sender body =
  { sender; body; signature = Auth.sign auth ~signer:sender (encode_body body) }

let verify auth t = Auth.verify auth ~signer:t.sender (encode_body t.body) t.signature

let tag = function
  | Pre_prepare _ -> "PRE-PREPARE"
  | Prepare _ -> "PREPARE"
  | Commit _ -> "COMMIT"
  | View_change _ -> "VIEW-CHANGE"
  | New_view _ -> "NEW-VIEW"
  | Qsel _ -> "QSEL-UPDATE"
