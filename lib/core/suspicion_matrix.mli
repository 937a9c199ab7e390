(** The eventually-consistent [suspected] matrix (paper, Section VI-A).

    [get ~suspector:l ~suspect:k] is the last epoch in which [l] suspected
    [k] (0 = never). Rows are merged with pointwise max, making the matrix a
    join-semilattice: merges commute, associate and are idempotent, so
    correct processes converge to the same state regardless of message
    order — the paper's "eventual consistent shared data structure".

    Rows are backed by a flat Bigarray with per-row nonzero bitsets and
    monotone version counters, so sparse scans cost O(nonzero) and the
    delta-gossip layer can detect changed rows without copying them. *)

type t

val create : int -> t
(** All-zero [n × n] matrix. *)

val n : t -> int

val copy : t -> t

val equal : t -> t -> bool

val get : t -> suspector:int -> suspect:int -> int

val record : t -> suspector:int -> suspect:int -> epoch:int -> unit
(** Max-merge a single cell ([record] never lowers a value). Recording a
    self-suspicion is rejected with [Invalid_argument]. *)

val row : t -> int -> int array
(** Copy of a row — what an UPDATE message carries. *)

val row_version : t -> int -> int
(** Monotone per-row change counter: bumped on every cell raise in that row
    (and on {!blit}). Equal versions ⇒ a peer that acked this version has
    seen every cell of the row; comparing versions is how the delta layer
    skips unchanged rows without allocating. *)

val sparse_row : t -> int -> (int * int) array
(** [(suspect, epoch)] pairs for the nonzero cells of a row, in increasing
    suspect order — what a delta-gossip row carries. O(nonzero). *)

val merge_cells : t -> owner:int -> (int * int) array -> bool
(** Max-merge individual [(suspect, epoch)] cells into [owner]'s row — the
    receiving end of {!sparse_row}. Returns [true] iff any cell changed.
    Same join as {!merge_row}: diagonal cells are ignored, values never
    decrease. [Invalid_argument] on out-of-range suspect or negative
    epoch. *)

val merge_row : t -> owner:int -> int array -> bool
(** Pointwise max of [owner]'s row with the given vector. Returns [true] iff
    any cell changed (Algorithm 1, lines 17–21). *)

val merge : t -> t -> bool
(** Whole-matrix max-merge; [true] iff the target changed. *)

val remap : t -> n:int -> of_new:(int -> int) -> t
(** [remap t ~n ~of_new] is a fresh [n × n] matrix where cell [(i, j)]
    carries old cell [(of_new i, of_new j)]; a slot with [of_new i < 0] is
    fresh (all-zero row and column), and cells of removed processes are not
    carried. Grow for joins, compacting remap for leaves/ejections. The
    result is a new matrix identity: no watcher, fresh version counters —
    reconfiguring callers must rebuild incremental views and reset delta
    peers. *)

val blit : src:t -> dst:t -> unit
(** Overwrite [dst] with [src]'s cells (same size required) — {e not} a
    merge: cells may go down. Restoring a model-checker snapshot is the one
    place this is legitimate. *)

val set_watcher :
  t ->
  on_raise:(suspector:int -> suspect:int -> epoch:int -> unit) ->
  on_reset:(unit -> unit) ->
  unit
(** Install change hooks: [on_raise] fires after every individual cell
    increase (through any of [record]/[merge_row]/[merge_cells]/[merge]),
    [on_reset] after a {!blit} (the one operation that can lower cells, so
    incremental consumers must rebuild). At most one watcher; {!copy}
    never inherits it. *)

val clear_watcher : t -> unit

val iter_nonzero :
  t -> (suspector:int -> suspect:int -> epoch:int -> unit) -> unit
(** Visit every nonzero cell, row-major. O(words + nonzero). *)

val suspect_graph : t -> epoch:int -> Qs_graph.Graph.t
(** Edge [(l,k)] iff [l] suspected [k] or [k] suspected [l] in [epoch] or
    later (Section VI-B). *)

val max_epoch : t -> int
(** Largest recorded cell. *)

val to_rows : t -> int array array
(** Copy of all cells, row-major — the serialization entry point used by
    {!Qs_recovery}'s codec. *)

val of_rows : int array array -> t
(** Rebuild a matrix from {!to_rows} output. [Invalid_argument] if the
    array is empty, not square, has a negative cell or a non-zero
    diagonal (a self-suspicion can never have been recorded). *)

val write_key : t -> Qs_stdx.State_key.t -> unit
(** Append the width and the set of nonzero cells, each as (suspector,
    suspect, epoch) with both pids written through the key's labelling.
    The labelling may map pids to classes in [\[-2, n)]. *)

val pp : Format.formatter -> t -> unit
