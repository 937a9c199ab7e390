(** Domain-sharded exploration: the {!Engine} fuzzer and IDDFS explorer
    fanned out across OCaml domains ({!Qs_stdx.Domainpool}), with
    deterministic merges — the same [jobs] always produces the same report,
    independent of domain scheduling, and the {e random} mode is
    byte-identical across [jobs] values.

    {2 Random mode}

    Walk [i] runs on its own decorrelated generator
    ([Prng.substream seed i]), so a walk's trajectory depends only on
    [(seed, i)] — never on which domain ran it. Workers pull walk indices
    from a shared atomic queue (dynamic load balancing; the [steals]
    stat counts pulls beyond a shard's static fair share) and skip indices
    above the lowest violating walk found so far. The merged report is
    defined over walks [0 .. w*] where [w*] is the {e lowest} violating
    index: counters sum over that prefix, visited states are the fingerprint
    set union over it, and the counterexample is walk [w*]'s. That is a
    partition-independent quantity, hence [--jobs 1] and [--jobs 4] emit
    byte-identical JSON.

    {2 Exhaustive mode}

    Per deepening bound, the root's children (with the exact sleep sets the
    sequential left-to-right order assigns) are computed on the calling
    domain and statically partitioned round-robin over shards; each shard
    explores its subtrees with {!Engine.Internal.visit} against a private
    fingerprint table seeded with the root entry, and tables merge at the
    depth barrier. Sleep-set reduction removes transitions, never states,
    so where the fingerprint is exact (two states share one only if they
    have the same future, as in the quorum and follower instances) the
    {e visited fingerprint set} (and the distinct-quiescent set) is
    partition-independent: any [jobs] agrees with the sequential explorer
    on [visited] and which checks are violated, and on [quiescent] when no
    quiescent state is visited twice (the sequential explorer counts
    quiescent visits, a shard distinct quiescent states). A protocol
    stack's fingerprint deliberately merges states that differ only in
    timers and the simulator queue; which of the merged states gets
    expanded then depends on the partition, so there [visited] and
    [quiescent] may differ between [jobs] values (xpaxos at depth 4: 196
    states sequentially, 197 with [jobs = 2]).
    Order-dependent byproducts — [revisit_pruned], [sleep_pruned],
    [transitions], [truncated] and the pre-shrink counterexample schedules —
    depend on the partition (they are deterministic for a fixed [jobs]);
    counterexamples are merged lexicographically-least per check, then
    shrunk. *)

type shard_stat = {
  shard : int;
  states : int;  (** states this shard counted fresh in its own table *)
  transitions : int;
  tasks : int;  (** walks run (random) / root subtrees explored (IDDFS) *)
  steals : int;
      (** tasks pulled beyond the static fair share — random mode's dynamic
          queue only; 0 in exhaustive mode (static partition). *)
  stalls : int;
      (** depth barriers where this shard idled waiting for the slowest
          shard (exhaustive mode). *)
  elapsed_s : float;
}

type result = {
  report : Engine.report;
  shards : shard_stat list;
  states_digest : string;
      (** Order-independent SHA-256 over the sorted visited-fingerprint
          set — equal digests iff equal state sets; what the bench gate
          compares between sequential and parallel runs. *)
}

val explore :
  jobs:int ->
  ?por:bool ->
  ?shrink:bool ->
  ?sym:bool ->
  depth:int ->
  (unit -> Engine.system) ->
  result
(** Sharded iterative-deepening DFS. The factory runs once on the calling
    domain (shard 0 reuses that system) and once {e inside} every other
    shard's domain, so per-domain observability state (metrics, journal)
    stays domain-local. [jobs] is clamped to the root-child count per
    iteration. *)

val random :
  jobs:int ->
  ?shrink:bool ->
  seed:int ->
  iters:int ->
  (unit -> Engine.system) ->
  result
(** Sharded seeded fuzzing, per-walk seeding as above. Note the walk
    trajectories differ from {!Engine.random}'s legacy single-stream
    seeding — [Shard.random ~jobs:1] is the reference run that
    [~jobs:n] reproduces byte-identically. *)

val observe : ?m:Qs_obs.Metrics.t -> result -> unit
(** Record per-shard throughput ([mc_shard_states_per_sec] histogram) and
    the [mc_steals_total] / [mc_merge_stalls_total] counters into [m]
    (default: the calling domain's registry). *)
