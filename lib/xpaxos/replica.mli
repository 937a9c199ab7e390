(** An XPaxos replica with the paper's failure-detector integration
    (Section V).

    Normal case (Fig. 2): the lowest-id member of the view's synchronous
    group leads; it sends PREPARE, every group member sends COMMIT (which
    embeds the signed PREPARE — second subtlety of Section V-A) to every
    other member, and a slot commits once a member holds the PREPARE plus
    COMMITs from all other members. Committed slots execute in order.

    Expectations issued to the failure detector, per Section V-A:
    - on sending or adopting a PREPARE: expect a matching COMMIT from every
      other group member;
    - on a COMMIT arriving before its PREPARE (Fig. 3): adopt the embedded
      PREPARE, send our own COMMIT, and additionally expect the PREPARE from
      the leader (third subtlety);
    - on learning a client request while not leading: expect a PREPARE
      containing it from the leader;
    - during view change: the new leader expects VIEW-CHANGE from every
      group member, members expect NEW-VIEW from the leader; all previous
      expectations are cancelled on a view switch (Section V-B).

    Detections (⟨DETECTED⟩): malformed COMMIT → its sender; two validly
    signed PREPAREs for the same view/slot with different requests →
    the leader (equivocation).

    View change is deliberately lighter than production XPaxos: VIEW-CHANGE
    carries the sender's log with original prepare signatures for
    provenance, the new leader merges (committed entries win, then highest
    view), broadcasts NEW-VIEW, and re-prepares all uncommitted entries at
    the new view. Commit certificates are not carried, so a Byzantine
    {e new leader} could fabricate a committed flag — within the XFT model
    the experiments run in (≤ f faulty, correct quorum after GST) this does
    not arise; see DESIGN.md §2. *)

type mode =
  | Enumeration
      (** XPaxos baseline: SUSPECT messages advance the view by one; view v
          uses group [Enumeration.group ~view:v]. *)
  | Quorum_selection
      (** The paper's contribution: an embedded Algorithm-1 instance turns
          SUSPECTED sets into quorums; ⟨QUORUM, Q⟩ jumps straight to the
          first view whose group is Q. *)

type config = {
  n : int;
  f : int;
  mode : mode;
  initial_timeout : Qs_sim.Stime.t;
  timeout_strategy : Qs_fd.Timeout.strategy;
}

type fault =
  | Honest
  | Mute  (** sends nothing at all (omission of every message) *)
  | Omit_to of Qs_core.Pid.t list  (** omission failures on individual links *)
  | Equivocate of Qs_core.Pid.t
      (** as leader, send the victim a conflicting PREPARE *)

type t

val create :
  config ->
  me:Qs_core.Pid.t ->
  auth:Qs_crypto.Auth.t ->
  sim:Qs_sim.Sim.t ->
  net_send:(dst:Qs_core.Pid.t -> Xmsg.t -> unit) ->
  ?on_execute:(slot:int -> Xmsg.request -> unit) ->
  unit ->
  t

val me : t -> Qs_core.Pid.t

val set_fault : t -> fault -> unit

val receive : t -> src:Qs_core.Pid.t -> Xmsg.t -> unit
(** Wire this as the network handler. Verifies the signature, feeds the
    failure detector, then processes. *)

val submit : t -> Xmsg.request -> unit
(** A client request reaches this replica. Leaders propose it; group members
    start expecting the leader's PREPARE; others ignore it. Duplicate
    (client, rid) pairs are proposed at most once. *)

val view : t -> int

val group : t -> Qs_core.Pid.t list

val leader : t -> Qs_core.Pid.t

val is_leader : t -> bool

val executed : t -> Xmsg.request list
(** Executed prefix, in order — the replicated state machine's history. *)

val committed_count : t -> int

val view_changes : t -> int
(** Number of view switches this replica performed. *)

val detector : t -> Xmsg.t Qs_fd.Detector.t

val detections : t -> Qs_core.Pid.t list
(** ⟨DETECTED⟩ events this replica raised (culprits, latest first). *)

val quorum_selector : t -> Qs_core.Quorum_select.t option
(** The embedded Algorithm-1 instance in [Quorum_selection] mode. *)

(** {2 Crash-recovery (amnesia)} *)

val timeouts : t -> Qs_fd.Timeout.t
(** The detector's adaptive timeout table — the durable part of the
    failure-detector state ({!Qs_fd.Timeout.export}/[import]). *)

val export_log_prefix : t -> Xmsg.entry list
(** The committed entries, slot-ordered — what the durable snapshot and the
    [StateResp] supplement carry. *)

val log : t -> Xlog.t
(** The replica's log, for the durability layer's change tracking
    ({!Xlog.id}, {!Xlog.changed_since}). *)

val import_log_prefix : t -> Xmsg.entry list -> unit
(** Re-install committed entries (from the durable snapshot or a peer's
    supplement) and execute the contiguous prefix. Each entry's original
    leader signature is verified first, so corrupted or fabricated entries
    are silently skipped rather than executed. Idempotent. *)

val catch_up_view : t -> view:int -> unit
(** Fast-forward to [view] if it is ahead — the rejoiner's jump to where
    the cluster moved while it was down. No-op otherwise. *)

val amnesia_restart : t -> view:int -> unit
(** Crash losing all volatile state and restart at the durable [view]:
    empties the log (re-import the durable prefix afterwards), forgets
    proposals and detector suspicions (adapted timeouts survive — they are
    durable), and puts the embedded selector in its dormant post-amnesia
    state awaiting a {!Qs_core.Quorum_select.absorb}. *)

val write_key : t -> Qs_stdx.State_key.t -> unit
(** The model-checker key of the replica: its protocol state (view, group,
    phase, log with votes and commit/execute marks, execution cursor,
    detections), then {!Qs_shell.Shell.write_key}. *)
