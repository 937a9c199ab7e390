(** Combinatorics helpers: binomial coefficients and enumeration of k-subsets.

    XPaxos's baseline view change walks an enumeration of all [choose n f]
    quorums (paper, Section V-B); these helpers implement that enumeration in
    lexicographic order with rank/unrank so the walk needs O(n) state. *)

val choose : int -> int -> int
(** [choose n k] is the binomial coefficient; 0 when [k < 0 || k > n].
    Raises [Overflow] if the result exceeds [max_int]. *)

exception Overflow

val next_subset : int -> int list -> int list option
(** [next_subset n s] is the successor of sorted k-subset [s] of [\[0, n)] in
    lexicographic order, or [None] when [s] is the last one. *)

val rank : int -> int list -> int
(** [rank n s] is the 0-based position of sorted subset [s] in the
    lexicographic enumeration of subsets of its size. *)

val unrank : int -> int -> int -> int list
(** [unrank n k r] is the sorted k-subset of [\[0, n)] with rank [r]. *)

val subsets : int -> int -> int list list
(** [subsets n k] lists all k-subsets in lexicographic order. Only for small
    [choose n k]; used by tests. *)
