module Auth = Qs_crypto.Auth

type request = Qs_sim.Smr_cluster.request = { client : int; rid : int; op : string }

let encode_request = Qs_sim.Smr_cluster.encode_request

type prepare = { view : int; slot : int; request : request }

type signed_prepare = { prepare : prepare; psig : Auth.signature }

type entry = {
  eview : int;
  eslot : int;
  erequest : request;
  ecommitted : bool;
  epsig : Auth.signature;
}

type body =
  | Prepare of signed_prepare
  | Commit of { cview : int; cslot : int; csp : signed_prepare }
  | Suspect of { sview : int }
  | View_change of { vview : int; vlog : entry list }
  | New_view of { nview : int; nlog : entry list }
  | Qsel of Qs_core.Msg.t

type t = { sender : Qs_core.Pid.t; body : body; signature : Auth.signature }

let encode_prepare p =
  Printf.sprintf "PREPARE|%d|%d|%s" p.view p.slot (encode_request p.request)

let hex = Qs_crypto.Sha256.hex

let encode_signed_prepare sp = encode_prepare sp.prepare ^ "#" ^ hex sp.psig

let encode_entry e =
  Printf.sprintf "ENTRY|%d|%d|%s|%b|%s" e.eview e.eslot (encode_request e.erequest)
    e.ecommitted (hex e.epsig)

let encode_body = function
  | Prepare sp -> "P:" ^ encode_signed_prepare sp
  | Commit { cview; cslot; csp } ->
    Printf.sprintf "C:%d|%d|%s" cview cslot (encode_signed_prepare csp)
  | Suspect { sview } -> Printf.sprintf "S:%d" sview
  | View_change { vview; vlog } ->
    Printf.sprintf "VC:%d|%s" vview (String.concat ";" (List.map encode_entry vlog))
  | New_view { nview; nlog } ->
    Printf.sprintf "NV:%d|%s" nview (String.concat ";" (List.map encode_entry nlog))
  | Qsel m -> "Q:" ^ Qs_core.Msg.encode m.Qs_core.Msg.update ^ "#" ^ hex m.Qs_core.Msg.signature

let sign_prepare auth ~leader prepare =
  { prepare; psig = Auth.sign auth ~signer:leader (encode_prepare prepare) }

let verify_prepare auth ~leader sp =
  Auth.verify auth ~signer:leader (encode_prepare sp.prepare) sp.psig

let seal auth ~sender body =
  { sender; body; signature = Auth.sign auth ~signer:sender (encode_body body) }

let verify auth t = Auth.verify auth ~signer:t.sender (encode_body t.body) t.signature

let tag = function
  | Prepare _ -> "PREPARE"
  | Commit _ -> "COMMIT"
  | Suspect _ -> "SUSPECT"
  | View_change _ -> "VIEW-CHANGE"
  | New_view _ -> "NEW-VIEW"
  | Qsel _ -> "QSEL-UPDATE"

let pp ppf t =
  Format.fprintf ppf "%s from %a" (tag t.body) Qs_core.Pid.pp t.sender
