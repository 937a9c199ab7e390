(** Independent sets of suspect graphs.

    Algorithm 1 (paper, Section VI-B) selects a quorum as the
    lexicographically-first independent set of size [q] in the suspect graph.
    The decision problem is NP-hard in general (Section VI-C), but suspect
    graphs have a small "core": only processes touched by suspicions have
    edges, so exact branching restricted to non-isolated vertices is fast —
    effectively bounded-vertex-cover, FPT in [f]. *)

val is_independent : Graph.t -> int list -> bool
(** No two listed vertices are adjacent. *)

val max_independent_set_size : Graph.t -> int
(** Exact maximum independent set size. *)

val mis_within : Graph.t -> Qs_stdx.Bitset.t -> int
(** Exact maximum independent set size of the subgraph induced by the given
    vertex set (not mutated). Lets callers that track connected components
    pay only for the component that changed — MIS size is additive across
    components. *)

val exists_independent_set : Graph.t -> int -> bool
(** [exists_independent_set g q]: does [g] contain an independent set of size
    [q]? (Line 27 of Algorithm 1.) *)

val lex_first_independent_set : Graph.t -> int -> int list option
(** The lexicographically-first independent set of exactly [q] vertices
    (sorted increasing), or [None] if none exists. Lexicographic order is on
    the sorted vertex sequences, so the result greedily prefers small
    vertex ids — this is the quorum Algorithm 1 outputs (line 31). *)

val min_vertex_cover_size : Graph.t -> int
(** [n - max_independent_set_size]: the complement view used in the proofs of
    Theorem 4 and Lemma 8. *)
