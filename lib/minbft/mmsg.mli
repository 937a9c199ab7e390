(** MinBFT-style wire messages.

    Two phases instead of PBFT's three: the trusted counter's uniqueness
    makes equivocation impossible by construction, so the PRE-PREPARE/
    PREPARE distinction collapses. A PREPARE carries the primary's UI over
    the request binding; a COMMIT carries the committer's own UI over the
    primary's certificate. *)

type request = Qs_sim.Smr_cluster.request = { client : int; rid : int; op : string }

val digest_of : view:int -> slot:int -> request -> string

type prepare = {
  pview : int;
  pslot : int;
  prequest : request;
  pui : Usig.ui;  (** primary's trusted certificate over the binding *)
}

type body =
  | Prepare of prepare
  | Commit of { cprepare : prepare; cui : Usig.ui (** committer's certificate *) }
  | Qsel of Qs_core.Msg.t

type t = {
  sender : Qs_core.Pid.t;
  body : body;
  signature : Qs_crypto.Auth.signature;
}

val commit_digest : prepare -> committer:Qs_core.Pid.t -> string
(** What a committer's UI certifies: the primary certificate it answers. *)

val encode_body : body -> string
(** A body's canonical bytes, as signed. *)

val seal : Qs_crypto.Auth.t -> sender:int -> body -> t

val verify : Qs_crypto.Auth.t -> t -> bool

val tag : body -> string
