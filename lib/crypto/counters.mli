(** Counts of the signing work: {!Auth.sign} and {!Auth.verify} calls and
    SHA-256 block compressions.

    The counts are domain-local ({!Qs_stdx.Domainpool.local}): each domain
    counts only the work it did itself, so signing from several domains at
    once never races on a shared counter, and a single-domain run reads
    exact totals. *)

type t = { signs : int; verifies : int; compressions : int }

val read : unit -> t
(** The calling domain's totals so far. *)

val since : t -> t
(** [since before] is the calling domain's work since [before] was read. *)

val signed : unit -> unit
(** Count one {!Auth.sign}. *)

val verified : unit -> unit
(** Count one {!Auth.verify}. *)

val compressed : unit -> unit
(** Count one SHA-256 block compression. *)
