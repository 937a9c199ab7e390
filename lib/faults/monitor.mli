(** Online invariant monitor.

    Subscribes to the {!Qs_obs.Journal} and checks the paper's guarantees
    {e while the run executes}, not just at the end:

    - {b quorum-bound} — per (process, epoch) count of [Quorum_issued]
      events against Theorem 3's [f(f+1)] (Algorithm 1) or Theorem 9's
      [3f+1] (Follower Selection), flagged the moment the bound is crossed;
    - {b no-suspicion} — an issued quorum must not contain a pair [(i, j)]
      where correct [i] has suspected [j] for longer than the settle window
      (the window absorbs the one or two rounds a fresh suspicion needs to
      propagate into the issuer's matrix);
    - {b quorum-bound-gauge} — cross-checks the live
      [qs_quorums_per_epoch_max] / [fs_quorums_per_epoch_max] metrics
      gauges against the same bound;
    - {b prefix-consistency} and {b exactly-once} — a periodic probe
      ({!attach_history_probe}) compares the correct processes' executed
      histories pairwise, so divergence gets a virtual timestamp;
    - {b stale-quorum} — between [Recovery_started] and
      [Recovery_completed] a process holds only wiped post-amnesia state,
      so issuing a quorum in that window means acting on pre-crash stale
      information;
    - {b rejoin-retries} — a completed rejoin must have stayed within the
      configured retry bound;
    - {b rejoin-stuck} — at the end of an in-model run ({!check_recovered})
      every started rejoin must have completed;
    - {b correct-excluded} — evidence proofs are sound, so a correct process
      (one the schedule does not blame) must never be proof-excluded, in- or
      out-of-model: a conviction needs two conflicting frames that verify
      under its own key;
    - {b excluded-quorum} — once a [Proof_found] / [Proof_admitted] names a
      culprit, every quorum issued more than one settle window later must
      exclude it, permanently (the window absorbs the round the proof needs
      to gossip). The Theorem-3/9 {b quorum-bound} checks stay armed with
      commission faults in-model — exclusion must not cost extra epochs;
    - {b stale-config} — configs are applied synchronously at every correct
      process, so a quorum issued by a selector whose last [Reconfigured]
      membership epoch is not the latest [Config_changed] one acts on a
      retired Π;
    - {b joiner-quorum} — between [Member_joined] and the joiner's
      [Recovery_completed] it holds nothing but bootstrap state, so no
      quorum older than the settle window may contain it;
    - {b ejected-quorum} / {b ejected-readmitted} — an evidence-ejected pid
      must never reappear, neither in a later quorum nor in a later
      config's member list. A [Member_ejected] of a correct process is
      itself flagged ({b correct-excluded});
    - {b quorum-intersection} — any two distinct quorums issued by correct
      processes under the same (config epoch, detector epoch) must overlap
      in at least [n − 2f] processes
      ({!Qs_core.Quorum_intersection.threshold}); a sub-threshold pair
      certifies an undersized or out-of-universe quorum. Checked
      incrementally per issue, so the violation carries the timestamp of
      the quorum that created the bad pair.

    Per-epoch accounting is recovery-aware: a [Recovery_started] clears the
    process's suspicion onsets and per-epoch issue counts (its previous
    incarnation was faulty; the theorems bound correct processes), and
    quorum-bound assertions are gated on the rejoin epoch — a recovered
    process is not charged for epochs it never observed.

    Accounting is also churn-aware: issue counters are keyed on the
    {e (config epoch, detector epoch)} pair — Theorem-3/9 budgets are
    re-anchored at every reconfiguration, and a model-checker snapshot
    restored from a different config never aliases the current counters —
    and every journaled slot is translated to its universe pid through the
    latest [Config_changed] member list (identity until the first one, which
    is exactly the static harnesses' pid = slot convention).

    Liveness (Termination, eventual commit) is a campaign-level end-of-run
    check — only {e in-model} schedules owe it — but the monitor counts
    [Commit] events as the supporting evidence.

    Only safety violations are recorded; each distinct violation is reported
    once. *)

type violation = { at : float; check : string; detail : string }
(** [at] is virtual milliseconds. *)

type config = {
  n : int;
  f : int;
  correct : int list;  (** Processes the schedule does not blame. *)
  quorum_bound : int option;
      (** Per-epoch issued-quorum bound to enforce; [None] disables the
          bound and no-suspicion checks make sense only with it off-model. *)
  bound_gauge : string option;
      (** Metrics gauge holding the live per-epoch maximum
          ([qs_quorums_per_epoch_max] or [fs_quorums_per_epoch_max]). *)
  settle : Qs_sim.Stime.t;
      (** Suspicion age before no-suspicion applies; a few network rounds. *)
  rejoin_retry_bound : int option;
      (** Max rebroadcast rounds a completed rejoin may have needed;
          [None] disables the check (out-of-model schedules can starve a
          rejoiner arbitrarily long). *)
}

val theorem3 : f:int -> int
(** [f * (f+1)] — Algorithm 1's per-epoch bound. *)

val theorem9 : f:int -> int
(** [3f + 1] — Follower Selection's per-epoch bound. *)

type t

val create : config -> t
(** Subscribes to the process-wide journal, which must be enabled for
    events to flow. Call {!detach} when done. *)

val detach : t -> unit

val reset : t -> unit
(** Forget all observed state (suspicion onsets, per-epoch issue accounting,
    recorded violations and counters) while staying subscribed. Model
    checkers call this on every fork/restore — epoch-bound accounting from
    an abandoned branch must not leak into the next one. *)

val attach_history_probe :
  t ->
  sim:Qs_sim.Sim.t ->
  every:Qs_sim.Stime.t ->
  (unit -> (int * (int * int) list) list) ->
  unit
(** Check the supplied [(process, executed (client, rid) list)] histories for
    pairwise prefix consistency and per-history exactly-once every [every]
    ticks, and cross-check the bound gauges. Call before the run starts. *)

val check_histories : t -> at:float -> (int * (int * int) list) list -> unit
(** One tick of that probe, on the given histories. *)

val check_recovered : t -> at:float -> unit
(** Flag every rejoin still in flight as [rejoin-stuck]. Recovery liveness
    holds only in-model (a correct reachable peer must exist to answer),
    so call this at end-of-run under the same gating as the liveness
    check. *)

val violations : t -> violation list
(** Chronological; empty means every online check held. *)

val checks_run : t -> int
(** Evidence the monitor actually ran (event checks + probe ticks). *)

val commits_observed : t -> int

val proofs_observed : t -> int
(** [Proof_found] + [Proof_admitted] events seen. *)

val forgeries_observed : t -> int
(** [Forgery_rejected] events seen. *)

val reconfigs_observed : t -> int
(** [Reconfigured] events seen — the per-process config-change
    applications. Regression pins use it as a vacuity guard: a churn
    schedule that stops reconfiguring must fail loudly. *)

val intersection_pairs : t -> int
(** Quorum pairs the intersection invariant actually compared — the
    vacuity guard for {b quorum-intersection} (0 means every epoch group
    held at most one distinct quorum). *)

val intersection_min_overlap : t -> int option
(** Smallest pairwise overlap observed, [None] until the first pair. *)

val violation_to_string : violation -> string

val violation_to_json : violation -> Qs_obs.Json.t
