(** The state both selection algorithms share.

    Quorum Selection (Algorithm 1, {!Quorum_select}) and Follower Selection
    (Algorithm 2, [Qs_follower.Follower_select]) run the same suspicion
    machinery and differ only in their selection rule. This module owns
    that machinery once: the epoch-stamped suspicion matrix and its
    incremental {!Suspect_view}, updateSuspicions without the seal, the
    max-merge of incoming UPDATE rows, epoch aging and issue bookkeeping,
    and the extension planes (exclusion, policy, reconfiguration, amnesia,
    snapshot). Each selector keeps its own rule, callbacks and message
    format on top, and reads the fields below; it changes them only through
    the functions of this module.

    Invariants it keeps for both algorithms:
    - {b Dormancy.} Between {!amnesia} and {!absorb} the instance is
      dormant: rows still merge (anti-entropy is monotone and never hurts),
      but a selector must issue no quorum from the wiped matrix. Only a
      full peer state or durable snapshot ({!absorb}) wakes it; a partial
      delta never does.
    - {b The f-cap on exclusions.} At most [f] convictions apply, earliest
      first ({!applied_exclusions}). Within the model's budget the
      non-excluded processes always admit a size-[q] selection, so epoch
      aging terminates; an out-of-model adversary convicting more than [f]
      would make the target unsatisfiable. Convictions survive {!amnesia}:
      a proof is a permanent fact, not volatile detector state.
    - {b Reconfiguration.} {!reconfigure} carries the matrix, suspicions,
      convictions (in conviction order) and policy through the slot map;
      removed slots and everything said about them die with the old
      config. The detector epoch and [epochs_entered] carry across
      unchanged; the issue history and the per-epoch issue count restart,
      so the per-epoch bounds re-anchor per (config epoch, detector epoch).
      The per-epoch maximum is kept. *)

type config = { n : int; f : int }
(** [q = n - f] processes form a quorum; requires [0 ≤ f] and [f < n - f]. *)

val q : config -> int

val validate_config : config -> unit
(** Raises [Invalid_argument] on a config violating the model. *)

type 'h t = private {
  who : string;  (** Module name prefixed to [Invalid_argument] messages. *)
  mutable config : config;
  mutable me : Pid.t;
  auth : Qs_crypto.Auth.t;
  mutable matrix : Suspicion_matrix.t;
  mutable view : Suspect_view.t;
  mutable cepoch : int;
  mutable epoch : int;
  mutable suspecting : Pid.t list;  (** Sorted, without [me]. *)
  mutable history : 'h list;  (** Issued entries, newest first. *)
  mutable epochs_entered : int;
  mutable rejected : int;
  mutable issued_in_epoch : int;
  mutable max_issued_in_epoch : int;
  mutable dormant : bool;
  mutable excluded : Pid.t list;  (** Conviction order. *)
  mutable policy : Selection_policy.t;
  m_updates_sent : Qs_obs.Metrics.counter;
  m_updates_merged : Qs_obs.Metrics.counter;
  m_rejected : Qs_obs.Metrics.counter;
  m_quorums : Qs_obs.Metrics.counter;
  m_epochs : Qs_obs.Metrics.counter;
  g_this_epoch : Qs_obs.Metrics.gauge;
  g_epoch_max : Qs_obs.Metrics.gauge;
}
(** ['h] is the type of one issue-history entry. *)

val create :
  who:string -> prefix:string -> config -> me:Pid.t -> auth:Qs_crypto.Auth.t -> 'h t
(** Validates the config, [me] and that [auth] knows at least [n]
    processes, then registers the counters and gauges as
    [<prefix>_updates_sent_total], [<prefix>_updates_merged_total],
    [<prefix>_rejected_total], [<prefix>_quorums_issued_total],
    [<prefix>_epochs_entered_total], [<prefix>_quorums_this_epoch] and
    [<prefix>_quorums_per_epoch_max], labelled [p=me]. *)

(** {2 Algorithm steps} *)

val stamp : 'h t -> Pid.t list -> int array * bool
(** updateSuspicions without the seal: remember the suspicions, stamp them
    with the current epoch in our own row, count and journal the send.
    Returns the row to broadcast and whether it changed. *)

val reject : 'h t -> unit
(** Count a dropped message. *)

type merge = Dropped | Merged of { reselect : bool }

val merge_row :
  'h t -> forced_by_exclusions:bool -> owner:Pid.t -> int array -> merge
(** Max-merge an UPDATE row whose signature already verified. A row of the
    wrong width or an out-of-range owner was sealed under another
    configuration and is rejected and counted; an unchanged merge is
    [Dropped]. On change the merge is counted and journalled, and
    [reselect] is [false] only when the selection graph provably did not
    move: the view was in sync before the merge and its generation did not
    change. With [forced_by_exclusions], any conviction forces [reselect]. *)

val enter_epoch : 'h t -> int -> unit
(** Move to a later detector epoch: count it, restart the per-epoch issue
    count and journal [Epoch_advanced]. *)

val issue : 'h t -> 'h -> Pid.t list -> unit
(** Record an issued quorum: history, per-epoch counts, metrics and the
    [Quorum_issued] journal entry. Callbacks are the caller's. *)

val applied_exclusions : 'h t -> Pid.t list
(** The first [f] convictions. *)

val suspicion_weights : 'h t -> Pid.t -> int
(** Lottery bias: how many processes ever suspected the vertex, plus a
    dominating [n] per standing conviction. *)

(** {2 Extension planes} *)

val exclude : 'h t -> Pid.t -> bool
(** Append a conviction; [false] if it was already known. Raises
    [Invalid_argument] on an out-of-range pid. *)

val set_policy : 'h t -> Selection_policy.t -> unit
(** Validate against the current width, then install. *)

val reconfigure :
  'h t ->
  config ->
  me:Pid.t ->
  cepoch:int ->
  of_new:(int -> Pid.t) ->
  carry:((Pid.t list -> Pid.t list) -> unit) ->
  unit
(** Move onto a new configuration (see the invariant above). Raises
    [Invalid_argument] on a bad config, an out-of-range [me] or [of_new],
    an auth directory smaller than the new [n], or a [cepoch] that does not
    advance. [carry] receives the old-to-new pid map (dropping removed
    slots) after the shared fields moved and before the issue history
    restarts, so the selector can carry or reset its own state. Journals
    [Reconfigured]. *)

val amnesia : 'h t -> unit
(** Lose the volatile state (matrix, epoch, suspicions, issue history and
    counts) and go dormant. *)

val absorb :
  'h t -> matrix:Suspicion_matrix.t -> epoch:int -> on_advance:(unit -> unit) -> unit
(** CRDT join with a peer's state: max-merge [matrix]; if [epoch] is ahead,
    {!enter_epoch} it and call [on_advance]; then wake from dormancy. *)

(** {2 Model-checker hooks} *)

type 'h snapshot

val snapshot : 'h t -> 'h snapshot
(** Deep copy of the shared state; O(n²). *)

val restore : 'h t -> 'h snapshot -> unit
(** A snapshot of another width adopts a copy and rebuilds the view. *)

val write_key : 'h t -> Qs_stdx.State_key.t -> (Qs_stdx.State_key.t -> unit) -> unit
(** [write_key t key body] appends the model checker's key of the shared
    state to [key]: [n, f, cepoch, epoch, matrix, body, issued, max,
    dormant, excluded, policy], the caller's [body] in the middle, with the
    matrix and the convictions relabeled through the key's permutation. *)
