(** Replica log: one entry per slot, committed prefix executed in order.

    A slot commits when the replica holds a valid PREPARE and matching
    COMMITs from {e every} other member of the synchronous group (paper,
    Section V-A, step 3) — the PREPARE counts as the leader's vote.

    The log also journals every change to what {!Xdurable} persists — a
    slot becoming committed, or a committed slot's prepare being replaced
    (re-signed at a newer view) — so a durability point can write only what
    changed since a given {!version}. The entry fields are read-only
    outside this module: every write goes through the setters below, so
    nothing can bypass the journal. *)

type entry = private {
  slot : int;
  mutable sp : Xmsg.signed_prepare option;  (** adopted prepare *)
  mutable votes : Qs_core.Pid.t list;  (** COMMIT senders (matching hash) *)
  mutable committed : bool;
  mutable executed : bool;
}

type t

val create : unit -> t

val entry : t -> int -> entry
(** Get-or-create the entry for a slot. *)

val find : t -> int -> entry option

val max_slot : t -> int
(** Highest touched slot; -1 when empty. *)

val next_slot : t -> int
(** [max_slot + 1] — the leader's allocation counter. *)

val record_vote : entry -> Qs_core.Pid.t -> unit
(** Idempotent. *)

val clear_votes : entry -> unit

val set_prepare : t -> entry -> Xmsg.signed_prepare -> unit
(** Adopt a prepare for the slot; journals a change when the slot is
    committed and the prepare differs from the stored one. *)

val mark_committed : t -> entry -> unit
(** Idempotent; journals the slot the first time. *)

val mark_executed : entry -> unit

val executed_prefix : t -> Xmsg.request list
(** Requests of executed slots 0,1,2,… in order (stops at the first gap). *)

val committed_count : t -> int

val to_entries : t -> Xmsg.entry list
(** Snapshot for VIEW-CHANGE messages: every slot with an adopted prepare. *)

val committed_entries : t -> Xmsg.entry list
(** The committed slots of {!to_entries}, in slot order — what is durable. *)

(** {2 Change tracking} *)

val id : t -> int
(** The log's identity: unique within the process, fresh at {!create} and
    at every {!clear}. *)

val version : t -> int
(** Number of journalled changes since the identity began. *)

val changed_since : t -> int -> Xmsg.entry list option
(** [changed_since t v]: the current form of every committed slot changed
    after version [v], in slot order — [Some []] at [v = version t].
    [None] when the journal no longer reaches back to [v] (it keeps about
    twice as many changes as there are committed slots) or [v] is ahead of
    the log: the caller must then write every committed entry. *)

val adopt : t -> Xmsg.entry -> view:int -> sp:Xmsg.signed_prepare -> unit
(** Install an entry from a NEW-VIEW: overwrite the slot's prepare with the
    re-signed one, preserving committed status if already committed. *)

val clear : t -> unit
(** Forget every slot — the volatile part of an amnesia crash — and take a
    fresh identity. The durable committed prefix is re-imported separately
    ({!Replica.import_log_prefix}). *)
