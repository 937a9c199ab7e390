(** Chaos campaigns over the five protocol stacks.

    Binds {!Qs_faults.Campaign} to concrete clusters: each run builds a
    fresh cluster from the run seed, compiles the generated fault schedule
    onto its network through {!Qs_faults.Injector}, attaches the online
    {!Qs_faults.Monitor} (journal subscription plus a periodic
    history/metrics probe), submits a workload and renders the verdict.

    Safety (prefix consistency, exactly-once) is checked for every
    schedule. The paper-specific checks — per-epoch quorum bounds
    (Theorem 3's [f(f+1)] for quorum selection, Theorem 9's [3f+1] for
    follower selection) and no-suspicion among correct processes — plus
    the termination check only apply to in-model schedules, where at most
    [f] processes are blamed.

    Every cluster also gets a {e recovery plane}: a parallel network on the
    same simulation running one {!Qs_recovery.Rejoin} engine per process
    with low-rate anti-entropy gossip. Fault schedules are installed on
    both planes, and a [CrashAmnesia] phase's recovery point wipes the
    process's volatile state (XPaxos restores a deep durable snapshot —
    view, committed log prefix, selection state, adapted timeouts — via
    {!Qs_xpaxos.Xcluster.attach_durability}; the other stacks lose their
    suspicion-plane state and keep their SMR logs, which are documented as
    durable-by-default) and starts a rejoin round. The monitor additionally
    enforces the recovery invariants: no quorum from mid-rejoin stale
    state, bounded retries, and (in-model) rejoin completion.

    Commission faults get an {e evidence plane}: one
    {!Qs_evidence.Evidence} store per process, fed every delivered
    suspicion row by a network tracer. Stores verify owner tags, turn
    conflicting validly-signed rows into transferable equivocation proofs
    (gossiped to the other stores), quarantine forgery channels, and wire
    convictions into the stacks' quorum selectors as permanent exclusions.
    The injector's protocol-speaking hooks (equivocate / slander / tamper)
    come from each stack's {!Stack} descriptor, so [Fault.Equivocate] and
    friends produce real re-signed wire frames. *)

type stack = Xpaxos_enum | Xpaxos_qs | Pbft | Minbft | Chain | Star

val all : stack list

val name : stack -> string

val of_name : string -> stack option
(** Case-insensitive lookup of the names printed by {!name}. *)

type params = {
  n : int;
  f : int;
  horizon : Qs_sim.Stime.t;  (** virtual run length per schedule *)
  requests : int;
  resubmit_every : Qs_sim.Stime.t;
  probe_every : Qs_sim.Stime.t;  (** online history/metrics probe period *)
  spares : int list;
      (** Universe pids outside the initial membership — muted until a
          generated [Join] admits them through the churn plane. Empty
          (static membership) by default. *)
  policy : Qs_core.Selection_policy.t;
      (** Selection policy installed on every process's selector before the
          run starts ({!Qs_core.Selection_policy.Lex_first} by default,
          which keeps the historical byte-exact execution path). Static
          configuration: every process gets the same one. *)
}

val default_params : stack -> params
(** n = 5, f = 2 for XPaxos and MinBFT; n = 7, f = 2 for PBFT, chain and
    star; 10 s horizon; no spares. *)

val churn_params : stack -> params
(** One universe size up with the top pid as a spare and f = 3, so a join,
    a leave and a Byzantine-then-ejected process fit in-model together:
    n = 8 for XPaxos, n = 10 for PBFT/chain/star — and n = 9 with f = 4
    for MinBFT, whose USIG replica count is pinned at exactly n = 2f+1. *)

val topology_for : params -> Qs_core.Topology.t
(** The canonical region topology of a parameter set: contiguous balanced
    blocks labeled [r0, r1, …], with enough regions that none exceeds the
    [f] budget (so a whole-region loss can stay in-model). The same
    topology backs [--correlated] fault domains and [--policy diverse]
    caps, so the two compose coherently. *)

val rejoin_max_retries : int
(** The retry budget every cluster's rejoin engines run with — also the
    monitor's [rejoin_retry_bound] on in-model schedules. *)

val execute :
  stack ->
  ?params:params ->
  seed:int ->
  model:Qs_faults.Fault.model ->
  Qs_faults.Fault.schedule ->
  Qs_faults.Campaign.exec_outcome
(** One monitored run of one schedule. Deterministic in [(seed, schedule)]
    — the replay/shrinking contract of {!Qs_faults.Campaign.run}. Resets
    the default metrics registry and clears the default journal. *)

val execute_with_evidence :
  stack ->
  ?params:params ->
  seed:int ->
  model:Qs_faults.Fault.model ->
  Qs_faults.Fault.schedule ->
  Qs_faults.Campaign.exec_outcome * Qs_evidence.Evidence.t array
(** {!execute}, additionally returning the per-process evidence stores of
    the commission plane, so tests can assert who ended up proof-excluded
    (and that no correct process did). Store [p] belongs to process [p]. *)

val campaign :
  stack ->
  ?params:params ->
  ?out_of_model:bool ->
  ?amnesia:bool ->
  ?byz:bool ->
  ?churn:bool ->
  ?correlated:bool ->
  ?runs:int ->
  ?jobs:int ->
  seed:int ->
  unit ->
  Qs_faults.Campaign.report
(** Generate-and-execute [runs] schedules from [seed]. [out_of_model]
    switches the generator to {!Qs_faults.Fault.gen_wild}, which exceeds
    the failure budget (the monitor then only enforces core SMR safety).
    [amnesia] makes half the generated crashes amnesia crashes
    ([p_amnesia = 0.5]); off by default, which keeps pinned campaign seeds
    byte-identical to their pre-recovery outcomes. [byz] likewise turns on
    the commission-fault plane (equivocation, slander, tampering, replay)
    with one active Byzantine behavior per blamed process; the evidence
    stores then convict and permanently exclude provable misbehavers while
    the monitor checks no correct process is ever proof-excluded. [churn]
    defaults [params] to {!churn_params} and arms the membership plane:
    spares join mid-run (bootstrapping dormant through the rejoin plane),
    faulty members leave after a graceful anti-entropy handoff, and
    convictions additionally propose the config change ejecting the
    culprit; every change reconfigures the member selectors
    width-preserving (membership epoch bump, identity slot remap) and the
    monitor's cross-epoch invariants (stale-config, joiner-quorum,
    ejected-quorum/readmitted) arm themselves from the journal.
    [correlated] arms whole-fault-domain failures over {!topology_for}'s
    topology (region partitions, rack losses, gray regions), emitted only
    while the schedule's blame set fits the budget; like the other knobs it
    is stream-stable when off.

    [jobs] (default 1) executes the runs on that many domains with a
    byte-identical report for every value — see {!Qs_faults.Campaign.run};
    each run builds its cluster against the executing domain's own default
    metrics registry and journal, so concurrent runs never share
    observability state. *)
