(** Wire messages for the BChain-style chain protocol.

    The paper cites BChain [7] as an existing application of Quorum
    Selection: the active quorum communicates {e along a chain}, cutting the
    all-to-all COMMIT traffic down to one forward pass and one ack pass
    (Section I; chain communication is also the future-work case of
    Section X). *)

type request = Qs_sim.Smr_cluster.request = { client : int; rid : int; op : string }

type forward = {
  slot : int;
  cepoch : int;  (** chain configuration epoch: changes with each quorum *)
  request : request;
  hsig : Qs_crypto.Auth.signature;  (** the head's signature over the slot binding *)
}

type body =
  | Forward of forward  (** travels head → tail *)
  | Ack of { aslot : int; aepoch : int }  (** travels tail → head *)
  | Qsel of Qs_core.Msg.t  (** quorum-selection gossip *)

type t = {
  sender : Qs_core.Pid.t;
  body : body;
  signature : Qs_crypto.Auth.signature;
}

val sign_head : Qs_crypto.Auth.t -> head:int -> slot:int -> cepoch:int -> request -> Qs_crypto.Auth.signature

val verify_head :
  Qs_crypto.Auth.t -> head:int -> forward -> bool

val encode_body : body -> string
(** A body's canonical bytes, as signed. *)

val seal : Qs_crypto.Auth.t -> sender:int -> body -> t

val verify : Qs_crypto.Auth.t -> t -> bool

val tag : body -> string
