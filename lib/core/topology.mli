(** Failure-correlation labels for the process universe.

    Real deployments fail in correlated blocks: a region partition or a
    rack loss takes out every process sharing the label, not an arbitrary
    [f]-subset. A topology attaches one label (region / zone / rack — the
    granularity is the caller's) to every slot of the current
    configuration, so selection policies can spread quorums across labels
    and the fault DSL can target a label's whole member set.

    A topology is immutable config, not protocol state: every correct
    process must hold the same one (it feeds deterministic selection), and
    reconfiguration derives the successor topology with the same
    deterministic rule on every process. *)

type t

val of_list : string list -> t
(** One label per slot. [Invalid_argument] on an empty list or an empty
    or [','/';']-containing label (reserved by {!to_string}). *)

val round_robin : n:int -> string list -> t
(** Slot [i] gets label [i mod k] of the [k] given labels — balanced
    interleaved placement. [Invalid_argument] if [n <= 0] or no labels. *)

val blocks : n:int -> string list -> t
(** Contiguous balanced blocks: the first [n mod k] labels get
    [ceil(n/k)] consecutive slots, the rest [floor(n/k)] — the shape of a
    rack-ordered inventory. *)

val n : t -> int

val label_of : t -> int -> string
(** [Invalid_argument] out of range. *)

val labels : t -> string list
(** Distinct labels in first-appearance order. *)

val members : t -> string -> int list
(** Slots carrying the label, increasing. Empty for an unknown label. *)

val counts : t -> (string * int) list
(** [(label, member count)], in {!labels} order. *)

val remap : t -> n:int -> of_new:(int -> int) -> t
(** Carry labels into a new configuration: new slot [i] inherits the label
    of old slot [of_new i]; a fresh slot ([of_new i < 0]) is placed in the
    least-populated label of the new topology so far (ties broken by
    {!labels} order) — a deterministic rule, so every process derives the
    same successor topology from the same reconfiguration. Fresh slots are
    assigned in increasing slot order. *)

val equal : t -> t -> bool

val to_string : t -> string
(** Per-slot labels joined with [','] — e.g. ["r0,r0,r1,r1"]. *)

val of_string : string -> t
(** Inverse of {!to_string}. [Invalid_argument] on empty input or empty
    labels. *)

val pp : Format.formatter -> t -> unit
