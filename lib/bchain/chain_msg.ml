module Auth = Qs_crypto.Auth

type request = Qs_sim.Smr_cluster.request = { client : int; rid : int; op : string }

let encode_request = Qs_sim.Smr_cluster.encode_request

type forward = {
  slot : int;
  cepoch : int;
  request : request;
  hsig : Auth.signature;
}

type body =
  | Forward of forward
  | Ack of { aslot : int; aepoch : int }
  | Qsel of Qs_core.Msg.t

type t = { sender : Qs_core.Pid.t; body : body; signature : Auth.signature }

let head_binding ~slot ~cepoch request =
  Printf.sprintf "CHAIN|%d|%d|%s" slot cepoch (encode_request request)

let sign_head auth ~head ~slot ~cepoch request =
  Auth.sign auth ~signer:head (head_binding ~slot ~cepoch request)

let verify_head auth ~head fwd =
  Auth.verify auth ~signer:head
    (head_binding ~slot:fwd.slot ~cepoch:fwd.cepoch fwd.request)
    fwd.hsig

let hex = Qs_crypto.Sha256.hex

let encode_body = function
  | Forward f ->
    Printf.sprintf "F:%d|%d|%s|%s" f.slot f.cepoch (encode_request f.request) (hex f.hsig)
  | Ack { aslot; aepoch } -> Printf.sprintf "A:%d|%d" aslot aepoch
  | Qsel m -> "Q:" ^ Qs_core.Msg.encode m.Qs_core.Msg.update ^ "#" ^ hex m.Qs_core.Msg.signature

let seal auth ~sender body =
  { sender; body; signature = Auth.sign auth ~signer:sender (encode_body body) }

let verify auth t = Auth.verify auth ~signer:t.sender (encode_body t.body) t.signature

let tag = function
  | Forward _ -> "CHAIN"
  | Ack _ -> "ACK"
  | Qsel _ -> "QSEL-UPDATE"
