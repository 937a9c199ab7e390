(** XPaxos wire messages (paper, Section V).

    Every inter-replica message is signed by its sender. Two paper-mandated
    details:
    - a COMMIT embeds the full signed PREPARE it answers (Section V-A,
      second subtlety), so receivers can both validate it and detect leader
      equivocation;
    - quorum-selection UPDATE rows piggyback on the same network ([Qsel]),
      since the selection module is part of each replica's stack (Fig. 1). *)

type request = Qs_sim.Smr_cluster.request = { client : int; rid : int; op : string }

type prepare = { view : int; slot : int; request : request }

type signed_prepare = {
  prepare : prepare;
  psig : Qs_crypto.Auth.signature;  (** leader-of-view signature *)
}

type entry = {
  eview : int;  (** view of the prepare this entry stems from *)
  eslot : int;
  erequest : request;
  ecommitted : bool;
  epsig : Qs_crypto.Auth.signature;
      (** the original leader-of-[eview] signature over the prepare, so
          view-change recipients can verify the entry's provenance *)
}
(** Log entry carried by view-change messages. *)

type body =
  | Prepare of signed_prepare
  | Commit of { cview : int; cslot : int; csp : signed_prepare }
  | Suspect of { sview : int }
      (** "view [sview]'s group failed me; move on" (enumeration mode) *)
  | View_change of { vview : int; vlog : entry list }
  | New_view of { nview : int; nlog : entry list }
  | Qsel of Qs_core.Msg.t  (** quorum-selection UPDATE gossip *)

type t = {
  sender : Qs_core.Pid.t;
  body : body;
  signature : Qs_crypto.Auth.signature;
}

val encode_prepare : prepare -> string

val encode_body : body -> string

val sign_prepare : Qs_crypto.Auth.t -> leader:int -> prepare -> signed_prepare

val verify_prepare : Qs_crypto.Auth.t -> leader:int -> signed_prepare -> bool
(** Checks the embedded signature against the given leader. *)

val seal : Qs_crypto.Auth.t -> sender:int -> body -> t

val verify : Qs_crypto.Auth.t -> t -> bool

val tag : body -> string
(** Short label for traces: "PREPARE", "COMMIT", … *)

val pp : Format.formatter -> t -> unit
