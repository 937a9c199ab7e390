(** Structural model-checker state keys.

    A key is a sequence of ints that the components of a state write their
    fields into, one after another, instead of rendering text. Every
    process id a component writes goes through the key's current
    {e labelling}, so writing a state under a pid permutation writes the
    key of the relabeled state without building it.

    Keys are compared as int sequences (lexicographically, a proper prefix
    first) and serialised by {!to_string} injectively. Writers must keep
    their layout self-delimiting (a list's count before its members, a
    tag before a variant's fields), so that two different states never
    write the same sequence. *)

type t
(** A reusable buffer. It allocates nothing until it is first written. *)

val create : unit -> t

val reset : t -> int array -> unit
(** [reset t label] empties [t] and writes every later pid [p] as
    [label.(p)]. When [label] is a permutation of [\[0, n)], {!old} reads
    its inverse. A labelling need not be injective (a signature maps
    pids to classes), but then {!old} is meaningless. The array is held,
    not copied. *)

val length : t -> int

val add : t -> int -> unit

val add_bool : t -> bool -> unit

val add_string : t -> string -> unit
(** Length, then one int per byte. *)

val add_pid : t -> int -> unit
(** [add_pid t p] writes [p]'s label. *)

val pack : t -> int -> int -> int -> int
(** [pack t a b v] packs the labels of pids [a] and [b] and a non-negative
    [v] into one int, injectively for labels in [\[-2, n)]. *)

val old : t -> int -> int
(** [old t i] is the pid the current permutation sends to slot [i]: a
    dense structure indexed by pid (a matrix, a row) is written slot by
    slot as [x.(old t i)]. *)

val add_list : t -> ('a -> unit) -> 'a list -> unit
(** [add_list t write xs]: the count, then each element as [write] writes
    it, in list order. *)

val add_pids : t -> int list -> unit
(** Count, then each pid's label, in list order. *)

val add_pids_sorted : t -> int list -> unit
(** Count, then the labels in increasing order: the key of a set. *)

val add_row : t -> int array -> unit
(** An array indexed by pid, of non-negative values: its length, then its
    nonzero entries as a set of (label, value) pairs. The labelling may map
    pids to classes in [\[-2, n)]. *)

val sort_from : t -> int -> unit
(** [sort_from t i] sorts the ints written since length [i] in increasing
    order: the key of a multiset of one-int records. *)

val add_multiset : t -> ('a -> unit) -> 'a list -> unit
(** [add_multiset t write xs]: the count, then each element as [write]
    writes it, a self-delimiting record, with the records sorted into
    increasing order: the key of the multiset [xs], whatever its order. *)

val add_table : t -> ('k, 'v) Hashtbl.t -> ('k -> 'v -> unit) -> unit
(** [add_table t tbl write]: the bindings as {!add_multiset} writes them. *)

val compare : t -> t -> int

val hash : t -> int
(** A non-negative hash of the sequence: equal keys hash equally. *)

val hash_from : t -> int -> int
(** [hash_from t i] hashes the ints written since length [i]. *)

val truncate : t -> int -> unit
(** [truncate t i] drops the ints written since length [i]. *)

val to_string : t -> string
(** The key as bytes: each int zigzag-encoded as a little-endian base-128
    varint, so distinct sequences give distinct strings. *)
