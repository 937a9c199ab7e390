(** Reproducible chaos campaigns.

    A campaign derives [runs] fault schedules from one seed, executes each
    under the caller's protocol stack, and stops at the first run whose
    online monitor reported a safety violation (or, for in-model schedules,
    whose liveness obligations went unmet). The failing schedule is then
    {e shrunk greedily} — every one-phase-removed variant is replayed with
    the same run seed until no single removal still fails — yielding a
    locally-minimal reproduction.

    Everything is deterministic: re-running with the same seed regenerates
    the same schedules, the same per-run seeds, and therefore the same
    verdicts, which is what makes [qsel chaos --seed N] a reproduction
    command rather than a dice roll. *)

type exec_outcome = {
  violations : Monitor.violation list;  (** Online safety violations. *)
  liveness : string list;  (** Unmet liveness obligations (in-model only). *)
  committed : int;
  submitted : int;
  checks : int;  (** Monitor checks that actually ran. *)
  proofs : int;
      (** Commission-fault evidence: equivocation proofs found or admitted
          during the run ([Proof_found] + [Proof_admitted] journal events). *)
  forgeries : int;  (** Forged frames rejected ([Forgery_rejected] events). *)
  reconfigs : int;
      (** Per-process config-change applications ([Reconfigured] events)
          — nonzero only on churn schedules. *)
  isect_pairs : int;
      (** Quorum pairs the monitor's intersection invariant actually
          compared — the vacuity signal for {b quorum-intersection}
          ([0] means every epoch group held a single distinct quorum). *)
  isect_min_overlap : int option;
      (** Smallest overlap seen across those pairs; [None] when no pair
          was compared. *)
}

val failed : exec_outcome -> bool

type run = {
  index : int;
  run_seed : int;  (** Seed handed to [execute] — replays deterministically. *)
  schedule : Fault.schedule;
  model : Fault.model;
  outcome : exec_outcome;
}

type report = {
  seed : int;
  runs : run list;  (** In execution order; stops after the first failure. *)
  first_failure : run option;
  minimal : run option;  (** Shrunk reproduction of the first failure. *)
  shrink_steps : int;  (** Re-executions the shrinker spent. *)
}

val ok : report -> bool

val greedy_shrink :
  candidates:('a -> 'a list) -> still_fails:('a -> bool) -> 'a -> 'a * int
(** The campaign's shrinker, generic in the thing being shrunk: repeatedly
    replace the value with the first candidate reduction that still fails,
    until none does. Returns the locally-minimal value and the number of
    [still_fails] evaluations spent. The model checker reuses this with
    one-choice-removed schedule variants. *)

val run :
  ?jobs:int ->
  seed:int ->
  runs:int ->
  gen:(Qs_stdx.Prng.t -> Fault.schedule) ->
  classify:(Fault.schedule -> Fault.model) ->
  execute:(seed:int -> model:Fault.model -> Fault.schedule -> exec_outcome) ->
  unit ->
  report
(** [execute] must be a pure function of [(seed, schedule)] for replay and
    shrinking to be meaningful.

    [jobs] (default 1) executes the runs on that many domains (sequentially
    on OCaml 4.14 — see {!Qs_stdx.Domainpool}). The report is byte-identical
    for every [jobs] value: schedules are pre-drawn from the generator in
    index order, the lowest failing index wins regardless of which worker
    finishes first, the run list is truncated at that index exactly as the
    sequential engine leaves it, and the shrink replays on the calling
    domain. [execute] must then also be safe to call from concurrent
    domains — true for stacks whose observability state lives in the
    domain-local default registries. *)

val render : report -> string
(** Multi-line human-readable report. *)

val to_json : report -> Qs_obs.Json.t
