(** Wire messages for the leader-centric star protocol.

    The message pattern Follower Selection is designed for (Section VIII):
    "a single leader communicates with several followers, but followers do
    not directly communicate with each other". One LEAD fan-out, one ACK
    fan-in, one APPLY fan-out — 3(q−1) messages per request, and the only
    links that matter are leader↔follower. *)

type request = Qs_sim.Smr_cluster.request = { client : int; rid : int; op : string }

type lead = {
  slot : int;
  qepoch : int;  (** quorum-configuration epoch (bumps on every re-selection) *)
  request : request;
  lsig : Qs_crypto.Auth.signature;  (** the leader's signature over the binding *)
}

type body =
  | Lead of lead
  | Ack of { aslot : int; aepoch : int }
  | Apply of { pslot : int; pepoch : int }
  | Fsel of Qs_follower.Fmsg.t  (** Follower Selection gossip (UPDATE / FOLLOWERS) *)

type t = {
  sender : Qs_core.Pid.t;
  body : body;
  signature : Qs_crypto.Auth.signature;
}

val sign_lead :
  Qs_crypto.Auth.t -> leader:int -> slot:int -> qepoch:int -> request -> Qs_crypto.Auth.signature

val verify_lead : Qs_crypto.Auth.t -> leader:int -> lead -> bool

val encode_body : body -> string
(** A body's canonical bytes, as signed. *)

val seal : Qs_crypto.Auth.t -> sender:int -> body -> t

val verify : Qs_crypto.Auth.t -> t -> bool

val tag : body -> string
