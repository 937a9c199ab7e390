(** Deterministic in-simulation durable key/value store.

    Models the one distinction crash-recovery hinges on: state written but
    not yet fsynced dies with the process. A {!put} lands in a volatile
    pending overlay; {!fsync} makes the overlay durable; {!crash} (what the
    amnesia injector calls) drops the overlay, so a recovered process reads
    back exactly its last fsync point. Partially-flushed state is therefore
    expressible: write twice, fsync once, crash — the second write is gone.

    Purely in-memory and deterministic: no filesystem, no wall clock, so
    simulated runs and the model checker stay reproducible. *)

type t

val create : ?fsync_every:int -> unit -> t
(** Empty store. With [fsync_every = k], every k-th unflushed {!put}
    triggers an automatic {!fsync} (a write-through store is [k = 1]);
    without it, durability points are wholly the caller's. *)

val put : t -> string -> string -> unit
(** Buffer a write in the volatile overlay (visible to {!get}, lost on
    {!crash} until the next {!fsync}). *)

val get : t -> string -> string option
(** Read through the overlay: the freshest write, flushed or not — what the
    running process sees. *)

val durable_get : t -> string -> string option
(** Read the durable layer only — what a recovery would see. *)

val fsync : t -> unit
(** Flush the overlay into the durable layer. *)

val crash : t -> unit
(** Drop all unflushed writes (counting them), as a power loss would. *)

(** {2 Counters} *)

val pending_writes : t -> int

val puts : t -> int

val bytes_written : t -> int
(** Key plus value bytes over every {!put}, flushed or not. *)

val fsyncs : t -> int

val crashes : t -> int

val lost_writes : t -> int
(** Total writes dropped by {!crash} calls. *)

val bindings : t -> (string * string) list
(** Overlay-merged view, sorted by key (for debugging and fingerprints). *)

(** {2 Snapshot / restore} — model-checker fork support. *)

type snapshot

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
