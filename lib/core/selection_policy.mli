(** Pluggable quorum-selection policies over the suspect graph.

    Algorithm 1 pins one rule — the lexicographically first independent
    set of size [q = n - f] — which concentrates quorums on the lowest
    pids and makes them maximally exposed to correlated failures (a region
    partition takes out a prefix-heavy quorum wholesale). A policy is any
    {e deterministic} function of the selection graph and the static
    configuration that picks a size-[q] independent set: determinism is
    what carries the paper's Agreement property, so a policy may depend on
    the (converged, CRDT-merged) suspicion state, the epochs and pinned
    seeds — never on local randomness or execution order.

    Three policies:

    - {!Lex_first} — the paper's rule, the pinned default. Selectors keep
      their incremental fast path and unchanged model-checker keys under
      it.
    - {!Seeded_lottery} — a deterministic lottery: every vertex draws a
      ticket from a {!Qs_stdx.Prng.substream} keyed on
      [(seed, cepoch, epoch)], scaled by a caller-supplied suspicion /
      conviction weight (heavier history ⇒ later in the draw order), and
      the greedy independent-set construction runs in ticket order with
      the same exact feasibility checks as lex-first — so a quorum exists
      iff lex-first would find one, but its composition rotates per epoch
      and drifts away from historically suspected processes.
    - {!Diversity_capped} — lex-first under per-label caps from a
      {!Topology}: no label may hold more than [cap] members of an issued
      quorum, bounding the blast radius of any single region loss. The
      backtracking search is exact over cap-respecting independent sets.

    Policies compose with reconfiguration ({!remap}), survive amnesia
    (they are config, not volatile state) and respect the [--jobs]
    byte-identity contract (pure functions of their inputs). *)

type t =
  | Lex_first
  | Seeded_lottery of { seed : int64 }
  | Diversity_capped of { topology : Topology.t; cap : int }

val default : t
(** {!Lex_first}. *)

val is_default : t -> bool

val validate : t -> n:int -> q:int -> unit
(** Static sanity for a configuration of [n] slots needing size-[q]
    quorums. [Invalid_argument] when a {!Diversity_capped} topology has
    the wrong width, a non-positive cap, or caps that cannot cover [q]
    even on an edgeless graph (sum over labels of [min cap members < q])
    — under which the epoch-aging loop could never terminate. *)

val remap : t -> n:int -> of_new:(int -> int) -> t
(** Carry the policy across a reconfiguration: {!Diversity_capped}
    topologies remap via {!Topology.remap}; the other policies are
    width-independent. *)

val select :
  t ->
  graph:Qs_graph.Graph.t ->
  q:int ->
  weight:(int -> int) ->
  cepoch:int ->
  epoch:int ->
  int list option
(** The policy's size-[q] independent set of [graph], sorted increasing,
    or [None] when the policy cannot issue one. For {!Lex_first} and
    {!Seeded_lottery} [None] is exact: no independent set of size [q]
    exists at all. For {!Diversity_capped} [None] additionally covers
    "none respects the caps" — the caller must consult
    {!diversity_feasible} before treating aging as a cure. [weight v]
    biases the lottery order ([>= 0]; ignored by the other policies). *)

val diversity_feasible : t -> graph:Qs_graph.Graph.t -> q:int -> bool
(** Would {!select} succeed on [graph] for a {!Diversity_capped} policy?
    [graph] here is the {e aging endpoint} — the selection graph as epoch
    aging will eventually leave it (conviction stars only). [true] for the
    other policies. The selector uses this to distinguish "age it out"
    from "the caps are permanently unsatisfiable, fall back". *)

val order :
  t ->
  candidates:int list ->
  weight:(int -> int) ->
  cepoch:int ->
  epoch:int ->
  int list
(** Reorder follower-selection candidates: {!Lex_first} keeps the given
    order; {!Seeded_lottery} sorts by the same weighted ticket draw as
    {!select}; {!Diversity_capped} takes candidates in order while their
    label stays under the cap and defers the overflow to the tail (a
    permutation — never drops anyone, so the caller still fills its
    quorum when the caps are tight). *)

val to_string : t -> string
(** ["lex"], ["lottery:SEED"], ["diverse:CAP:LABELS"] (with
    {!Topology.to_string} labels). *)

val of_string : string -> t option

val pp : Format.formatter -> t -> unit
