(** Protocol bindings for the small-scope model checker.

    Builds {!Qs_mc.Engine.system} values for the bare selection algorithms
    and for every replica stack:

    - [quorum] — bare Algorithm-1 instances over an unordered controlled
      network. Suspicions are injected as initial ⟨SUSPECTED⟩ events; every
      delivery interleaving of the resulting UPDATE gossip is explored.
      Each declared {!fault} adds one choice, enabled at every state until
      taken (see {!fault} for the four kinds). Faults are one table in
      the implementation — a kind is a constructor plus one row (its
      choice, blamed pids and effect) — so validation, fingerprints,
      symmetry and snapshots treat every kind alike.
      Checks: |Q| = n − f on every issued quorum, Theorem 3's per-epoch
      bound, instantaneous no-suspicion (the current quorum is independent
      in the issuer's suspect graph), pairwise quorum intersection — two
      live correct processes at the same (config epoch, detector epoch)
      must hold standing quorums overlapping in at least [n − 2f]
      ({!Qs_core.Quorum_intersection.threshold}) — and, at quiescent
      states, agreement and matrix convergence. A pending fault choice
      keeps a state non-quiescent, so every terminal state has all declared
      faults behind it and the rejoins completed (controlled delivery is
      reliable and [needed = 1]). Provides the snapshot fast path.
    - [follower] — Algorithm-2 instances over a FIFO controlled network
      with the emulated failure detector of {!Fcluster}: open FOLLOWERS
      expectations become [Fire p] choices. Checks: |Q| = q, Theorem 9's
      [3f+1] bound, leader membership, quiescent agreement on
      (leader, quorum). Snapshot fast path included.
    - every {!Stack.variants} row ([xpaxos], [pbft-selected], [star], …)
      — the stack built from its descriptor as [simulate] builds it, with
      requests handed to every replica up front. Timers (detector
      deadlines) surface as [Step] choices popping the simulator queue.
      Checks: the {!Qs_faults.Monitor} invariants under the descriptor's
      Theorem-3/9 bound (no-suspicion is off — under frozen virtual time
      the settle window is meaningless — and the instantaneous independence
      check replaces it), its exactly-once and prefix-consistency history
      checks, and the Algorithm-1 assertions wherever the stack selects by
      Algorithm 1. Replay-only (no snapshot): the simulator queue and the
      monitor's accumulated state cannot be rolled back in place.

    Also home to the [test/regressions/] corpus format: plain-text
    [key=value] files replayed either through {!Qs_mc.Engine.replay}
    ([kind=mc]) or through a monitored {!Chaos.execute} run
    ([kind=chaos]). *)

type protocol = Quorum | Follower | Stack of string  (** by its first name *)

val protocol_name : protocol -> string

val protocol_of_name : string -> protocol option
(** ["quorum"], ["follower"] or a {!Stack.variants} name or alias. *)

(** A one-shot fault of the [quorum] instance. Each backs one choice that
    may fire at any explored point, once; its targets are faulty and draw
    on the same [f] budget as [crashes]. *)
type fault =
  | Amnesia of int
      (** [Amnesia p] crash: [p] loses its volatile selection state
          ({!Qs_core.Quorum_select.amnesia}), its in-flight messages die,
          and a {!Qs_recovery.Rejoin} round parks its State_req/State_resp
          traffic on the controlled network, so recovery interleaves freely
          with the UPDATE gossip. [p] stays subject to every check. *)
  | Equivocate of int
      (** [Equivocate p] sends two validly-signed, pointwise-incomparable
          variants of [p]'s own suspicion row to its first two peers.
          Forward-on-change gossip spreads both, so quiescent convergence
          and agreement are checked against the max-merge union. *)
  | Churn of int
      (** [Churn p] atomically removes [p] and readmits it under a fresh
          slot: every process runs {!Qs_core.Quorum_select.reconfigure} at
          the same width with [of_new p = -1] and a bumped config epoch,
          [p]'s in-flight messages die, and [p] rejoins through the recovery
          protocol. *)
  | Region of int list
      (** [Region members] mutes every member at once and drops their
          inbound in-flight messages (their own pre-loss gossip stays in
          flight): a correlated whole-region loss. Lost members are excluded
          from checks from the loss on. The [i]-th region in a spec fires
          as the {!Qs_mc.Schedule.Region}[ i] choice. *)

val fault_of_string : string -> fault option
(** ["amnesia:P"], ["equivocate:P"], ["churn:P"] or ["region:M1,M2"] (kind
    case-insensitive) — the [mc --inject] syntax, and a corpus line such as
    [amnesia=1] with its [=] read as [:]. [None] when the text names no
    fault kind;
    [Invalid_argument] when it names one with a malformed argument. *)

val injection_of_string : string -> (int * int list) option
(** ["P:S1,S2"] as [(P, [S1; S2])] (the [mc --inject] and corpus
    [inject=] syntax); [None] when malformed. *)

type spec = {
  protocol : protocol;
  n : int;
  f : int;
  injections : (int * int list) list;
      (** Initial ⟨SUSPECTED, S⟩ events: [(p, S)] feeds [S] to process [p]'s
          selection instance before exploration starts. Ignored by the
          stack instances (suspicions there come from timer [Step]s). *)
  crashes : int list;
      (** Processes crashed from the start: sends and deliveries dropped,
          excluded from every correctness check. At most [f]. *)
  faults : fault list;
      (** One-shot faults ([quorum] protocol only), explored at every point
          of every schedule. *)
  requests : int;  (** Client requests submitted up front (stacks only). *)
  seeded_bug : bool;
      (** Arm {!Qs_core.Quorum_select.test_buggy_quorum_size} inside
          [reset], so the checker hunts a known undersized-quorum bug.
          Only meaningful where Algorithm 1 runs: [quorum] and the stacks
          that select by it. *)
}

val default_spec : protocol -> spec
(** n = 4, f = 1. [quorum]: process 0 initially suspects 3; [follower]:
    process 1 initially suspects the default leader 0; a stack: one
    request, no injections, n = 3 where its replicas refuse 4 (MinBFT). *)

val validate : spec -> unit
(** Raises [Invalid_argument] on out-of-range pids, more than [f] faulty
    processes (crashes and fault targets combined), a fault outside the
    [quorum] protocol, targeting a crashed process or declared twice, an
    empty or duplicate-member region, an [n] the stack's replicas refuse,
    or a [seeded_bug] on a protocol that has no embedded Algorithm 1. *)

val make : spec -> Qs_mc.Engine.system
(** The system is self-contained: [reset] rebuilds the cluster, re-arms
    crashes, re-injects suspicions and resubmits requests, and clears the
    process-wide metrics registry and journal (and the test bug flag) so
    replays are deterministic. An exception raised while applying a
    choice does not escape: it ends the path in a terminal state that
    reports an ["exception"] violation, so the engine shrinks and prints
    a replayable schedule for it like for any other check. *)

(** {2 Symmetry canonicalisation}

    Every instance keys its states by a {!Qs_stdx.State_key} its
    components write, relabeling pids as they go; the plain fingerprint is
    the key under the identity. Under [explore ~sym] the quorum instance
    prunes on a canonical key found by signature refinement:
    every free pid (one no crash, fault or injection names) gets a
    label-free signature, and only the labellings that order the free pids
    by signature — permuting within ties — are keyed. The search below is
    the same one over the whole permutation group, so a test can check
    that both induce the same partition of states. *)

type qwire = Q_update of Qs_core.Msg.t | Q_rejoin of Qs_recovery.Rejoin.msg
(** A message on the quorum instance's controlled network: Algorithm-1
    UPDATE gossip or rejoin traffic. *)

type canon_search = {
  full_canon : unit -> string;
      (** The least relabeled key of the current state over every
          permutation of the free pids. *)
  candidates : unit -> int;
      (** The number of labellings [symmetry] keys for the current state
          (computed afresh on each call; nothing is counted). *)
  free : int list;  (** The free pids, in increasing order. *)
  selectors : unit -> Qs_core.Quorum_select.t array;
  rejoins : unit -> Qs_recovery.Rejoin.t array;
  in_flight : unit -> (int * int * qwire) list;  (** [(src, dst, payload)] *)
  fired : unit -> bool list;  (** Per fault row: fired yet. *)
}
(** With the current state's parts, read-only, so a test can key or
    render it independently. *)

val make_with_canon_search : spec -> Qs_mc.Engine.system * canon_search
(** [make spec] together with the full-group search over its state.
    [Invalid_argument] as {!validate}, or for a protocol other than
    [quorum]. *)

(** {2 Regression corpus}

    A [.sched] file is [key=value] lines ([#] comments, blank lines
    ignored). Two kinds:

    [kind=mc] — replay a model-checker schedule:
    {v
    kind=mc
    protocol=quorum          # quorum|follower or a Stack.variants name
    n=4                      # optional, default from default_spec
    f=1                      # optional, default 1
    inject=0:3               # repeatable, "p:s1,s2"
    crash=2                  # repeatable
    amnesia=1                # repeatable, quorum only
    equivocate=0             # repeatable, quorum only
    churn=2                  # repeatable, quorum only
    region=4,5               # repeatable, quorum only: one fault domain's
                             # members per line, in region-id order
    requests=1               # optional (stacks; default 1)
    seeded-bug=quorum-size   # optional, arms the test bug
    schedule=d0;d2;t
    expect=ok                # or violation:<check>
    v}

    [kind=chaos] — one monitored {!Chaos.execute} run:
    {v
    kind=chaos
    stack=xpaxos-qs
    seed=7
    n=5                      # optional, default from Chaos.default_params
    f=2
    horizon-ms=400
    requests=3               # optional
    spare=7                  # repeatable: universe pids outside the
                             # initial membership (churn pins)
    faults=delay p0->p2 by 60.000ms @ 0.000ms   # Fault.to_string format
    policy=diverse:2:r0,r0,r1,r1,r2   # optional Selection_policy.of_string
    min-proofs=1             # optional vacuity guard (commission pins)
    min-reconfigs=6          # optional vacuity guard (churn pins): the
                             # run must apply at least this many
                             # per-process reconfigurations
    min-intersection-pairs=1 # optional vacuity guard (correlated pins):
                             # the monitor must compare at least this
                             # many distinct quorum pairs
    expect=ok                # or violation:<check>
    v} *)

val run_regression : path:string -> (unit, string) result
(** Parse and replay one corpus file; [Error] explains the first way the
    file's [expect] line was not met (or a parse problem). Resets the
    seeded-bug flag on the way out regardless of outcome. *)
