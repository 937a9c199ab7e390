(** Small-scope model checker: iterative-deepening DFS over all delivery
    interleavings of a deterministic system, with fingerprint pruning and a
    sleep-set-style partial-order reduction, plus a randomized walker
    sharing the same choice-point interface for scopes exhaustion can't
    reach. Violations come out as minimal replayable {!Schedule.t}s, shrunk
    with {!Qs_faults.Campaign.greedy_shrink}.

    The engine is {e stateless} in the model-checking sense: a state is
    (re)materialized either by replaying its choice prefix from the
    deterministic initial state, or — when the system provides the optional
    {!system.snapshot} fast path — by rolling mutable state back in place.
    See DESIGN.md, "Model checking & schedule exploration", for the state
    graph, the POR commutativity argument and the fingerprint soundness
    caveats. *)

(** One enabled transition, with the metadata the reducer needs, captured
    {e while the state it belongs to is materialized} (pending-message ids
    are only meaningful there). *)
type choice_info = {
  choice : Schedule.choice;
  canon : string;
      (** Canonical id-free key — e.g. ["1>3#<payload digest>"] for a
          delivery — stable across the different pending-id numberings two
          commuting paths assign. Sleep sets and duplicate-choice detection
          compare these, never raw ids. *)
  receiver : int option;
      (** Destination process of a delivery; [None] for [Step]/[Fire].
          Two choices commute iff both have receivers and they differ. *)
}

type system = {
  reset : unit -> unit;
      (** Rebuild the deterministic initial state (faults installed,
          requests submitted, module-level observability state cleared). *)
  enabled : unit -> choice_info list;
      (** Enabled transitions of the current state, deterministic order. *)
  apply : Schedule.choice -> bool;
      (** Execute one choice; [false] if it was a no-op (unknown id during
          replay of an edited schedule — treated as a skip). *)
  fingerprint : unit -> string;
      (** Canonical encoding of the current global state: process states
          plus the in-flight message {e multiset} (id-free — see DESIGN).
          The engine hashes it, so length is fine. *)
  violations : unit -> (string * string) list;
      (** (check, detail) pairs violated in / accumulated up to the current
          state. Must be stable under re-evaluation. *)
  quiescent_violations : unit -> (string * string) list;
      (** Extra checks that only make sense with no transition enabled
          (agreement, convergence). *)
  snapshot : (unit -> unit -> unit) option;
      (** Optional fork/restore fast path: capture now, get back a restore
          thunk. When [None], the engine re-materializes states by replaying
          the choice prefix from [reset]. *)
  symmetry : (unit -> string) option;
      (** Optional symmetry-canonical fingerprint of the current state: the
          least {!system.fingerprint}-equivalent key over the
          process-identity permutations that fix the instance's
          distinguished pids (fault injection sources/targets). Two states
          related by such a permutation canonicalize identically, so the
          explorer prunes whole orbits; [None] where the instance has no
          usable symmetry. Only consulted under [explore ~sym:true]. *)
}

type violation = {
  check : string;
  detail : string;
  schedule : Schedule.t;  (** Minimal (shrunk) replayable reproduction. *)
  shrink_steps : int;
}

type mode = Exhaustive of { depth : int } | Random of { seed : int; iters : int }

type report = {
  mode : mode;
  visited : int;  (** Distinct state fingerprints. *)
  revisit_pruned : int;  (** Subtrees cut by the fingerprint cache. *)
  sleep_pruned : int;
      (** Transitions cut as redundant: sleep-set reduction plus
          duplicate-canon dedup (two pending copies of one message are one
          transition) — the latter fires even with [por:false]. *)
  transitions : int;  (** Choices actually executed (exploration only). *)
  quiescent : int;  (** States with no enabled transition. *)
  truncated : int;  (** Paths cut by the depth bound. *)
  complete : bool;
      (** Whole reachable graph explored within the bound (no truncation in
          the deepest iteration) — "exhausted cleanly". *)
  violations : violation list;
}

val ok : report -> bool

val commutes : choice_info -> choice_info -> bool
(** The POR independence relation: two choices commute iff both are
    deliveries to distinct processes. *)

val explore :
  ?por:bool -> ?shrink:bool -> ?sym:bool -> depth:int -> system -> report
(** Iterative-deepening DFS to [depth] choices. [por] (default true) turns
    the sleep-set reduction on; [shrink] (default true) minimizes every
    counterexample; [sym] (default false) prunes on the
    {!system.symmetry}-canonical fingerprint instead of the plain one,
    collapsing identity-permuted states into one orbit representative.
    Stats are those of the deepest iteration run; a violation keeps the
    shortest schedule that reaches it. *)

val random : ?shrink:bool -> seed:int -> iters:int -> system -> report
(** Seeded random walks (200 choices each), stopping at the first
    violation. Same seed, same walks, same verdict. *)

val replay : system -> Schedule.t -> (string * string) list
(** Reset, apply every choice (unknown ids skip), and return every (check,
    detail) violated at any point along the way — the regression-corpus
    runner and the shrinker's oracle. *)

val shrink :
  ?memo:bool -> system -> check:string -> Schedule.t -> Schedule.t * int
(** Greedy one-choice-removed minimization (via
    {!Qs_faults.Campaign.greedy_shrink}) of a schedule that violates
    [check]; returns the locally-minimal schedule and replays spent. With
    [memo] (default true) and a snapshotting system, candidate replays
    fast-forward through memoized shared prefixes instead of resetting and
    reapplying from scratch — same minimum, same oracle-call count, far
    fewer [apply]s. *)

val shrink_violations :
  system -> shrink:bool -> violation list -> violation list
(** Minimize each violation's schedule in place (no-op when [shrink] is
    false) — shared by {!explore}, {!random} and {!Shard}. *)

(** Exploration internals shared with {!Shard} (the domain-sharded
    explorer). Not a stable API: the invariants that make per-shard results
    mergeable are documented on {!Shard}. *)
module Internal : sig
  type stats = {
    mutable s_visited : int;
    mutable s_revisit : int;
    mutable s_sleep : int;
    mutable s_transitions : int;
    mutable s_quiescent : int;
    mutable s_truncated : int;
  }

  val new_stats : unit -> stats

  type table = (Qs_crypto.Sha256.digest, (int * string list) list) Hashtbl.t
  (** Fingerprint cache: per fingerprint, the (budget, sorted sleep-canon)
      pairs it was explored under — see the dominance rule in engine.ml. *)

  val fingerprint_for : sym:bool -> system -> unit -> string
  (** The fingerprint function [explore ~sym] actually uses. *)

  val visit :
    system ->
    fpf:(unit -> string) ->
    por:bool ->
    stats:stats ->
    visited:table ->
    qfps:(Qs_crypto.Sha256.digest, unit) Hashtbl.t option ->
    note:(Schedule.t -> (string * string) list -> unit) ->
    path:Schedule.t ->
    budget:int ->
    sleep:choice_info list ->
    unit
  (** One DFS visit of the already-materialized state at [path]. [qfps],
      when given, switches quiescent accounting from per-visit events to
      distinct fingerprints (mergeable across shards by set union). *)

  type walk = {
    w_fps : Qs_crypto.Sha256.digest list;  (** Distinct fingerprints seen. *)
    w_transitions : int;
    w_quiescent : bool;
    w_truncated : bool;
    w_viols : violation list;  (** One per check, in discovery order, unshrunk. *)
  }

  val walk : system -> rng:Qs_stdx.Prng.t -> walk
  (** One random walk of at most 200 choices from [reset], drawing
      from [rng]: the loop {!random} runs on one stream and {!Shard.random}
      on each walk's own substream. *)
end

val report_to_string : report -> string

val report_to_json : report -> Qs_obs.Json.t
