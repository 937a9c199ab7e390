(** E17 (extension): multicore exploration scaling.

    Runs the domain-sharded fuzzer ({!Qs_mc.Shard.random}) over the default
    quorum model-checking instance at 1/2/4/8 worker domains and measures
    walk-states per wall second, per shard and overall. The point of the
    experiment is twofold:

    - {e determinism is free}: every point's report must be byte-identical
      to the single-domain run (same counterexamples, same counters, same
      visited-fingerprint set) — that part is a hard verdict;
    - {e throughput scales}: states/s should grow with the worker count up
      to the machine's core budget. Wall-clock speedup is recorded but
      deliberately {e not} a verdict — single-core CI runners execute the
      shards sequentially (and OCaml 4.14 always does), where the honest
      speedup is 1.0x. The bench gate treats the throughput columns as
      report-only and pins only the agreement bits.

    The exhaustive explorer is measured at one point (jobs = 2 vs 1) for
    the visited-set agreement check; its barrier-per-bound structure makes
    its scaling less interesting than the embarrassingly-parallel fuzzer. *)

type point = {
  jobs : int;
  iters : int;  (** fuzzer walks executed *)
  visited : int;  (** distinct walk-state fingerprints *)
  elapsed_s : float;  (** wall clock for the whole run *)
  states_per_sec : float;
  speedup : float;  (** vs the jobs = 1 point *)
  identical_report : bool;  (** report JSON byte-equal to jobs = 1 *)
  same_states : bool;  (** visited-fingerprint digest equal to jobs = 1 *)
}

type explore_check = {
  seq_visited : int;
  par_visited : int;  (** sharded IDDFS at jobs = 2 *)
  sets_agree : bool;  (** same visited-fingerprint set *)
  sym_visited : int;  (** with symmetry-canonical fingerprints *)
  sym_collapses : bool;  (** sym_visited < seq_visited *)
  sym_visited_n5 : int;  (** the n = 5 instance under symmetry, same depth *)
  sym_candidates_n5 : int;
      (** labellings keyed over that exploration's canonical calls *)
}

val measure :
  ?quick:bool -> ?jobs:int list -> unit -> point list * explore_check
(** Raw measurements — the bench harness serializes these into the
    [explore] section of [BENCH_qsel.json]. *)

val run : ?quick:bool -> ?jobs:int list -> unit -> Qs_stdx.Table.t * Verdict.t list
