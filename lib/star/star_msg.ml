module Auth = Qs_crypto.Auth

type request = Qs_sim.Smr_cluster.request = { client : int; rid : int; op : string }

let encode_request = Qs_sim.Smr_cluster.encode_request

type lead = { slot : int; qepoch : int; request : request; lsig : Auth.signature }

type body =
  | Lead of lead
  | Ack of { aslot : int; aepoch : int }
  | Apply of { pslot : int; pepoch : int }
  | Fsel of Qs_follower.Fmsg.t

type t = { sender : Qs_core.Pid.t; body : body; signature : Auth.signature }

let lead_binding ~slot ~qepoch request =
  Printf.sprintf "LEAD|%d|%d|%s" slot qepoch (encode_request request)

let sign_lead auth ~leader ~slot ~qepoch request =
  Auth.sign auth ~signer:leader (lead_binding ~slot ~qepoch request)

let verify_lead auth ~leader l =
  Auth.verify auth ~signer:leader (lead_binding ~slot:l.slot ~qepoch:l.qepoch l.request)
    l.lsig

let hex = Qs_crypto.Sha256.hex

let encode_body = function
  | Lead l ->
    Printf.sprintf "L:%d|%d|%s|%s" l.slot l.qepoch (encode_request l.request) (hex l.lsig)
  | Ack { aslot; aepoch } -> Printf.sprintf "A:%d|%d" aslot aepoch
  | Apply { pslot; pepoch } -> Printf.sprintf "X:%d|%d" pslot pepoch
  | Fsel m -> "F:" ^ Qs_follower.Fmsg.encode m.Qs_follower.Fmsg.payload ^ "#" ^ hex m.Qs_follower.Fmsg.signature

let seal auth ~sender body =
  { sender; body; signature = Auth.sign auth ~signer:sender (encode_body body) }

let verify auth t = Auth.verify auth ~signer:t.sender (encode_body t.body) t.signature

let tag = function
  | Lead _ -> "LEAD"
  | Ack _ -> "ACK"
  | Apply _ -> "APPLY"
  | Fsel m -> (
    match m.Qs_follower.Fmsg.payload with
    | Qs_follower.Fmsg.Update _ -> "FSEL-UPDATE"
    | Qs_follower.Fmsg.Followers _ -> "FOLLOWERS")
