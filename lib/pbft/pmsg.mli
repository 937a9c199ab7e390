(** PBFT wire messages.

    Classic three-phase pattern (Castro & Liskov [1]): the primary's
    PRE-PREPARE binds a request to a slot; replicas agree with PREPAREs and
    confirm with COMMITs, both carrying only the request digest. SYNC /
    NEW-CONFIG carry log state across view or active-set changes, with the
    original pre-prepare signatures as provenance (same scheme as the XPaxos
    substrate). *)

type request = Qs_sim.Smr_cluster.request = { client : int; rid : int; op : string }

val digest : request -> string
(** SHA-256 of the canonical request encoding. *)

type pre_prepare = { view : int; slot : int; request : request }

type signed_pre_prepare = {
  pp : pre_prepare;
  ppsig : Qs_crypto.Auth.signature;  (** primary-of-view signature *)
}

type entry = {
  eview : int;
  eslot : int;
  erequest : request;
  ecommitted : bool;
  epsig : Qs_crypto.Auth.signature;
}

type body =
  | Pre_prepare of signed_pre_prepare
  | Prepare of { view : int; slot : int; pdigest : string }
  | Commit of { view : int; slot : int; cdigest : string }
  | View_change of { vview : int; vlog : entry list }
  | New_view of { nview : int; nlog : entry list }
  | Qsel of Qs_core.Msg.t

type t = {
  sender : Qs_core.Pid.t;
  body : body;
  signature : Qs_crypto.Auth.signature;
}

val sign_pre_prepare :
  Qs_crypto.Auth.t -> primary:int -> pre_prepare -> signed_pre_prepare

val verify_pre_prepare :
  Qs_crypto.Auth.t -> primary:int -> signed_pre_prepare -> bool

val encode_body : body -> string
(** A body's canonical bytes, as signed. *)

val seal : Qs_crypto.Auth.t -> sender:int -> body -> t

val verify : Qs_crypto.Auth.t -> t -> bool

val tag : body -> string
