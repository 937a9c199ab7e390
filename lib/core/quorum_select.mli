(** Quorum Selection — Algorithm 1 of the paper.

    One instance runs at each process. Inputs:
    - [handle_suspected]: the ⟨SUSPECTED, S⟩ events from the local failure
      detector;
    - [handle_update]: UPDATE messages from the network.

    Outputs, via callbacks:
    - [send]: broadcast an UPDATE {e to all processes including self}
      (Algorithm 1 line 15 — self-delivery is what re-triggers
      [updateQuorum] after a local state change, and forwarding on change
      implements the anti-entropy gossip of lines 22–23);
    - [on_quorum]: ⟨QUORUM, Q⟩ events, [|Q| = n − f];
    - [on_epoch]: epoch increments (line 28), which the Follower-Selection
      variant and the XPaxos integration use to cancel expectations.

    The module never needs consensus: the [suspected] matrix is merged with
    pointwise max, so all correct processes converge on the same state and —
    because the quorum is the deterministic lexicographically-first
    independent set — on the same quorum (Agreement).

    The suspicion machinery and extension planes shared with Follower
    Selection live in {!Selector_state}; this module adds Algorithm 1's
    selection rule (lines 25–34). *)

type config = Selector_state.config = { n : int; f : int }
(** [q = n - f] processes form a quorum; requires [0 ≤ f] and [f < n - f]
    (majority correct, Section IV). *)

val q : config -> int

val validate_config : config -> unit
(** Raises [Invalid_argument] on a config violating the model. *)

type t

val create :
  config ->
  me:Pid.t ->
  auth:Qs_crypto.Auth.t ->
  send:(Msg.t -> unit) ->
  on_quorum:(Pid.t list -> unit) ->
  ?on_epoch:(int -> unit) ->
  unit ->
  t

val me : t -> Pid.t

val handle_suspected : t -> Pid.t list -> unit
(** ⟨SUSPECTED, S⟩ from the failure detector: remember [S] as the current
    suspicions, stamp them with the current epoch in our row, and broadcast
    the row (updateSuspicions, lines 11–15). *)

val handle_update : t -> Msg.t -> unit
(** Verify the owner's signature, max-merge the row, and on change forward
    the message and re-evaluate the quorum (lines 16–24). Badly signed
    updates are dropped and counted. *)

val epoch : t -> int

val last_quorum : t -> Pid.t list
(** Most recent quorum (initially [{p1 … pq}], line 8). *)

val quorums_issued : t -> int
(** Number of ⟨QUORUM⟩ events issued (the metric of Theorems 3 and 4). *)

val quorum_history : t -> Pid.t list list
(** All issued quorums, oldest first (excludes the initial default). *)

val epochs_entered : t -> int
(** Number of epoch increments. *)

val max_issued_per_epoch : t -> int
(** Largest number of ⟨QUORUM⟩ events issued within any single epoch — the
    quantity Theorem 3 bounds by [f·(f+1)] (and Section VI-B conjectures is
    at most [C(f+2,2)]). Also published live as the
    [qs_quorums_per_epoch_max] gauge. *)

val issued_in_epoch : t -> int
(** ⟨QUORUM⟩ events issued so far in the current epoch. *)

val matrix : t -> Suspicion_matrix.t
(** The live matrix — treat as read-only. *)

val reevaluate : t -> unit
(** Re-run updateQuorum against the current matrix. For layers that merge
    into the matrix out-of-band (delta-state gossip): merges are monotone so
    this is always safe, and unlike {!absorb} it respects dormancy — a
    partial delta must never wake a wiped process. Cheap when nothing
    relevant changed (the incremental suspect-graph view is already
    current). *)

val suspecting : t -> Pid.t list
(** Current FD suspicions as last reported. *)

val rejected_updates : t -> int

val suspect_graph : t -> Qs_graph.Graph.t
(** The graph [G_i] for the current epoch (for inspection), {e without} the
    exclusion stars — see {!exclude}. *)

(** {2 Evidence-driven permanent exclusion} *)

val exclude : t -> Pid.t -> unit
(** Permanently bar a {e proven-guilty} process (an admitted
    {!Qs_evidence.Evidence} proof) from every future quorum. Implemented at
    selection time: each excluded vertex is covered with a star of edges on
    a copy of the suspect graph, so no independent set of size ≥ 2 — hence
    no quorum — can contain it, while the suspicion matrix (and its aging)
    is left untouched. Re-evaluates the quorum immediately. Idempotent.

    At most [f] exclusions are {e applied} (earliest convictions win):
    within the model budget the non-excluded complement always admits a
    size-[q] independent set, so epoch aging still terminates; past the
    budget the target would become unsatisfiable. Exclusion deliberately
    survives {!amnesia} — a proof is a permanent fact, not volatile
    detector state. *)

val excluded : t -> Pid.t list
(** Processes convicted so far, sorted. *)

(** {2 Selection policy} *)

val policy : t -> Selection_policy.t
(** The installed policy ({!Selection_policy.Lex_first} initially). *)

val set_policy : t -> Selection_policy.t -> unit
(** Install a selection policy. Policies are static configuration, not
    protocol state: every correct process must install the same one (the
    Agreement property is carried by deterministic selection over the
    converged matrix), and a policy survives {!amnesia} like the rest of
    the config. Validates against the current width
    ({!Selection_policy.validate}) and re-evaluates the standing quorum
    immediately.

    {!Selection_policy.Lex_first} keeps the incremental fast path; a
    non-default policy adds its tag to the {!write_key} and selects through
    {!Selection_policy.select} over the exclusion-starred selection
    graph. A {!Selection_policy.Diversity_capped} policy whose caps
    become unsatisfiable even at the aging endpoint (convictions crowding
    a label out) degrades to lex-first for the affected selections rather
    than diverging in the epoch-bump loop; the [qs_policy_fallback_total]
    counter records every such degradation. {!reconfigure} carries the
    policy across configs via {!Selection_policy.remap}. *)

(** {2 Reconfiguration (open membership)} *)

val reconfigure :
  t -> config -> me:Pid.t -> cepoch:int -> of_new:(int -> Pid.t) -> unit
(** Carry the instance into a new configuration — grow for joins, compacting
    remap for leaves/ejections. [of_new i] names the old slot that new slot
    [i] inherits ([< 0] for a fresh joiner slot); removed slots are simply
    never mentioned, so their suspicions and convictions die with the
    config. [me] is this process's slot in the new config, [cepoch] the
    strictly-increasing membership epoch (folded into {!write_key} so
    model-checker pruning never merges states across configs).

    The matrix is {!Suspicion_matrix.remap}ped (the incremental view is
    rebuilt on the new matrix), suspicions and exclusions are remapped, the
    detector epoch is preserved, per-epoch issue counters restart (the
    Theorem-3 bound re-anchors per (config epoch, detector epoch)) and the
    standing quorum resets to the new config's default. Journals
    [Reconfigured] and re-evaluates unless dormant. Callers must drop
    in-flight UPDATEs of the old config (rows of the wrong width are
    rejected defensively) and reset any delta-gossip peer state. *)

val cepoch : t -> int
(** Membership epoch of the current configuration (0 until the first
    {!reconfigure}). *)

(** {2 Crash-recovery (amnesia) hooks} *)

val amnesia : t -> unit
(** Simulate a crash that loses all volatile state: zero the matrix, reset
    the epoch to 1 and the quorum to the default, forget suspicions and
    per-epoch counters, and go {e dormant} — incoming rows still merge
    (anti-entropy) but no quorum is issued until {!absorb} supplies a
    recovered state. Implements the "never issue a quorum from pre-crash
    stale state" recovery invariant. *)

val absorb : t -> matrix:Suspicion_matrix.t -> epoch:int -> unit
(** CRDT join of a peer's [StateResp] (or a durable snapshot): max-merge
    [matrix], fast-forward to [epoch] if ahead, clear dormancy and
    re-evaluate the quorum. Idempotent and commutative across responses —
    the semilattice property that makes rejoin state transfer safe. *)

val dormant : t -> bool
(** [true] between {!amnesia} and the first {!absorb}. *)

(** {2 Model-checker hooks} *)

val write_key : t -> Qs_stdx.State_key.t -> unit
(** The instance's algorithm-visible state as a model-checker key — epoch,
    matrix, last quorum, current suspicions and the per-epoch issue counters
    (the latter so states differing only in proximity to the Theorem-3 bound
    are never merged); callbacks and metrics handles are excluded. Written
    relabeled through the key's permutation: matrix conjugated, pid sets
    mapped. [last_quorum] is
    written verbatim — lex-first selection is a function of the suspect
    graph, not of labels, so the caller (the model checker's symmetry
    reduction) must only use permutations that fix every pid incident to a
    suspicion edge. *)

type snapshot

val snapshot : t -> snapshot
(** Deep copy of the mutable state; O(n²). *)

val restore : t -> snapshot -> unit
(** Roll the instance back to a snapshot. The metrics registry is global and
    is {e not} rolled back — model checkers reset it per run instead. *)

val test_buggy_quorum_size : bool ref
(** Test-only fault seed: when set, updateQuorum targets an independent set
    of size [q - 1], issuing undersized quorums. Exists so the model
    checker's detection pipeline (find → shrink → pin regression) can be
    exercised against a known bug. Leave [false] outside tests. *)
