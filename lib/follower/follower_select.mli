(** Follower Selection — Algorithm 2 of the paper (Section VIII).

    A leader-centric variant of Quorum Selection for applications where
    followers never talk to each other, so suspicions {e between followers}
    need not trigger a change ({e no leader suspicion} replaces
    {e no suspicion}). Under [n > 3f] and FIFO links it needs only [O(f)]
    quorum changes per epoch (Theorem 9) instead of Algorithm 1's [O(f²)].

    Mechanics: suspicions gossip exactly as in Algorithm 1; from the suspect
    graph each process computes a {e maximal line subgraph} and takes its
    designated node as leader (Definition 1). The leader picks [q − 1]
    {e possible followers} (Definition 2) and broadcasts a signed FOLLOWERS
    message carrying its line subgraph as justification; receivers check it
    is well formed (Definition 3) and adopt the quorum. A leader that omits,
    malforms or equivocates its FOLLOWERS message is reported to the failure
    detector ([fd_expect] / [fd_detected]), earning a suspicion that changes
    the leader.

    The suspicion machinery Algorithm 2 keeps from Algorithm 1
    (updateSuspicions, UPDATE max-merge, epoch aging) and the extension
    planes below live once in {!Qs_core.Selector_state}, shared with
    {!Qs_core.Quorum_select}; this module adds only the selection rule.

    Deviations from the listing, documented here:
    - after an epoch bump whose re-stamped row is unchanged, evaluation
      continues locally (same liveness fix as in {!Qs_core.Quorum_select});
    - [stable] is reset to [true] on an epoch bump, since the bump installs
      the default quorum; the listing leaves it stale, which would let a
      Byzantine default leader slip an unchecked FOLLOWERS message through. *)

type t

val create :
  Qs_core.Quorum_select.config ->
  me:Qs_core.Pid.t ->
  auth:Qs_crypto.Auth.t ->
  send:(Fmsg.t -> unit) ->
  on_quorum:(leader:Qs_core.Pid.t -> Qs_core.Pid.t list -> unit) ->
  ?fd_expect:(leader:Qs_core.Pid.t -> epoch:int -> unit) ->
  ?fd_cancel:(unit -> unit) ->
  ?fd_detected:(Qs_core.Pid.t -> unit) ->
  unit ->
  t
(** [send] must broadcast to all processes including the sender (like
    Algorithm 1). The [fd_*] callbacks drive the failure detector: expect a
    FOLLOWERS message from the new leader ([fd_expect]), cancel expectations
    on leader/epoch change ([fd_cancel]), report proofs of misbehavior
    ([fd_detected]). They default to no-ops for harnesses that emulate the
    detector externally. Raises [Invalid_argument] unless [n > 3f], [me]
    is in range and [auth] knows at least [n] processes. *)

val me : t -> Qs_core.Pid.t

val handle_suspected : t -> Qs_core.Pid.t list -> unit
(** ⟨SUSPECTED, S⟩ from the failure detector. *)

val handle_msg : t -> Fmsg.t -> unit
(** An UPDATE or FOLLOWERS message from the network. *)

val epoch : t -> int

val leader : t -> Qs_core.Pid.t

val stable : t -> bool

val last_quorum : t -> Qs_core.Pid.t list
(** Current quorum including the leader, sorted. *)

val quorums_issued : t -> int

val quorum_history : t -> (Qs_core.Pid.t * Qs_core.Pid.t list) list
(** (leader, quorum) in issue order. *)

val epochs_entered : t -> int

val max_issued_per_epoch : t -> int
(** Largest number of quorums issued within any single epoch — the quantity
    Theorem 9 bounds by [3f+1]. Also published live as the
    [fs_quorums_per_epoch_max] gauge. *)

val detections : t -> Qs_core.Pid.t list
(** Processes this node reported via [fd_detected], most recent first. *)

val matrix : t -> Qs_core.Suspicion_matrix.t

val reevaluate : t -> unit
(** Re-derive the leader/quorum after an out-of-band (delta-gossip) matrix
    merge. Respects dormancy, unlike {!absorb}. *)

val suspect_graph : t -> Qs_graph.Graph.t

val rejected_msgs : t -> int

val select_followers :
  ?excluded:Qs_core.Pid.t list ->
  ?reorder:(Qs_core.Pid.t list -> Qs_core.Pid.t list) ->
  Qs_graph.Graph.t ->
  leader:Qs_core.Pid.t ->
  q:int ->
  Qs_core.Pid.t list
(** The deterministic follower choice a correct leader makes: the [q − 1]
    first possible followers of the line subgraph, excluding the leader
    and any proven-guilty process ([excluded] defaults to none). [reorder]
    (default: identity, i.e. smallest-first) is the selection-policy hook —
    it receives the filtered candidates and must return a permutation of
    them. Exposed for tests. Raises [Invalid_argument] if fewer are
    available (impossible under the model's [n > 3f]). *)

val well_formed :
  ?excluded:Qs_core.Pid.t list ->
  n:int ->
  q:int ->
  suspect_graph:Qs_graph.Graph.t ->
  Fmsg.followers ->
  bool
(** Definition 3 check against the receiver's current suspect graph, under
    its admitted exclusions: the sender must be the minimum {e eligible}
    degree-0 vertex of its line subgraph and no follower may be excluded.
    Exposed for tests. *)

(** {2 Evidence-driven permanent exclusion} — the conviction list and its
    f-cap are {!Qs_core.Selector_state}'s. *)

val exclude : t -> Qs_core.Pid.t -> unit
(** Permanently bar a proven-guilty process from leadership, followership
    and the epoch-bump default quorum. At most [f] exclusions apply
    (earliest convictions win), quorums only change through the normal
    Algorithm-2 paths — except that a convicted {e current} leader triggers
    an immediate re-derivation. Survives {!amnesia}. Idempotent. *)

val excluded : t -> Qs_core.Pid.t list
(** Processes convicted so far, sorted. *)

(** {2 Selection policy} — held in {!Qs_core.Selector_state}. *)

val policy : t -> Qs_core.Selection_policy.t
(** The installed policy ({!Qs_core.Selection_policy.Lex_first} initially). *)

val set_policy : t -> Qs_core.Selection_policy.t -> unit
(** Install a selection policy: when this process leads, the follower
    candidates are reordered through {!Qs_core.Selection_policy.order}
    before the first [q − 1] are taken. Static configuration — every
    correct process installs the same one so a leader handoff keeps quorum
    shapes consistent, though receivers validate any subset of possible
    followers (Definition 3 does not constrain the order). No forced
    re-issue on install (same reasoning as {!exclude}: a stable leader
    re-broadcasting a reshaped FOLLOWERS message would trip its receivers'
    equivocation check). Validates against the current width; carried
    across {!reconfigure} via {!Qs_core.Selection_policy.remap}; survives
    {!amnesia}. The {!write_key} gains a policy tag only when non-default. *)

(** {2 Reconfiguration (open membership)} — what carries across is
    {!Qs_core.Selector_state.reconfigure}'s. *)

val reconfigure :
  t ->
  Qs_core.Quorum_select.config ->
  me:Qs_core.Pid.t ->
  cepoch:int ->
  of_new:(int -> Qs_core.Pid.t) ->
  unit
(** Remap onto a new configuration (grow for joins, compact for
    leaves/ejections): matrix/view/suspicions/exclusions/detections carry
    over through [of_new], the leader/stability machinery resets to the new
    config's defaults (cancelling any armed expectation — the old leader
    may no longer be a member), per-epoch issue counters restart and
    [cepoch] is folded into {!write_key}. Requires [n > 3f] in the new
    config. *)

val cepoch : t -> int

(** {2 Crash-recovery (amnesia) hooks} — dormancy as in
    {!Qs_core.Selector_state}. *)

val amnesia : t -> unit
(** Lose all volatile Algorithm-2 state (matrix, epoch, leader, quorum,
    detections) and go dormant: incoming UPDATE rows still merge, but no
    quorum is issued and FOLLOWERS messages are ignored — the wiped
    (leader, epoch, qlast) triple would make the equivocation check compare
    against state the process no longer legitimately holds — until
    {!absorb}. Also cancels the attached detector's expectations. *)

val absorb : t -> matrix:Qs_core.Suspicion_matrix.t -> epoch:int -> unit
(** CRDT join of a peer's state: max-merge, fast-forward the epoch (the
    new-epoch path resets leader/quorum to the defaults, as Algorithm 2's
    own epoch advance does), clear dormancy and re-derive the leader. *)

val dormant : t -> bool
(** [true] between {!amnesia} and the first {!absorb}. *)

(** {2 Model-checker hooks} — the shared fields are snapshotted and
    written by {!Qs_core.Selector_state}. *)

val write_key : t -> Qs_stdx.State_key.t -> unit
(** The algorithm-visible state as a model-checker key (epoch, matrix,
    leader, stability, last quorum, suspicions, detections, per-epoch issue
    counters), pids written through the key's labelling. *)

type snapshot

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
