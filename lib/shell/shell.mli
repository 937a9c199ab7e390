(** The per-process stack below a protocol's rules (paper, Fig. 1 and
    Section IV): signed links, the expectation-based failure detector and,
    optionally, Algorithm 1 — written once for the five replicas (XPaxos,
    PBFT, MinBFT, chain, star), which keep only their protocol logic, and
    for the heartbeat stack ([Qs_harness.Heartbeat]), which keeps only its
    rounds and its timed faults.

    A replica builds its shell first ({!create}), then its own state, then
    ties the detector's outputs to that state ({!start}). The creation order
    is fixed: adaptive {!Qs_fd.Timeout} table, then {!Qs_fd.Detector}, then
    (with {!Select}) {!Qs_core.Quorum_select}.

    Invariants every stack gets from here:
    - {e sender = source}: {!receive} hands a frame to the detector only if
      it verifies under the stack's [verify] {e and} its sealed sender is
      the link it arrived on. A validly signed frame replayed by another
      process, or a frame with a forged tag, is dropped before the detector:
      it fulfils no expectation and is not counted as rejected there.
    - {e auth covers n}: {!create} rejects a key directory smaller than [n],
      in every mode, selecting or not — otherwise the first signed send
      would fail deep inside a protocol step.
    - {e self-delivery}: the link fault never applies to the process's own
      address, so a [Mute] or [Omit_to] process still receives its own
      {!broadcast} (Algorithm 1's "to all including self").
    - {e exactly once}: {!execute_once} admits each (client, rid) once.

    What stays per stack: the message types and their [seal]/[verify]; the
    protocol's expectations, detections and view or epoch changes; XPaxos's
    [Equivocate] fault (a protocol behaviour, not a link fault — XPaxos maps
    it to [Honest] here and picks per-destination bodies itself); the star
    protocol's Follower Selection wiring ([fd_expect], [fd_cancel],
    [fd_detected]), passed in as a {!Protocol} suspicion consumer. *)

type fault =
  | Honest
  | Mute  (** sends nothing to peers (omission of every message) *)
  | Omit_to of Qs_core.Pid.t list  (** omission failures on individual links *)

type ('b, 'm) t
(** A process's shell over message bodies ['b] sealed into frames ['m]. *)

val create :
  who:string ->
  n:int ->
  me:Qs_core.Pid.t ->
  auth:Qs_crypto.Auth.t ->
  sim:Qs_sim.Sim.t ->
  net_send:(dst:Qs_core.Pid.t -> 'm -> unit) ->
  seal:(Qs_crypto.Auth.t -> sender:Qs_core.Pid.t -> 'b -> 'm) ->
  verify:(Qs_crypto.Auth.t -> 'm -> bool) ->
  sender:('m -> Qs_core.Pid.t) ->
  initial_timeout:Qs_sim.Stime.t ->
  Qs_fd.Timeout.strategy ->
  ('b, 'm) t
(** Check [me] and the key directory, then create the timeout table and the
    detector. Until {!start}, delivered frames and suspicions go nowhere.
    [Invalid_argument] ["<who>: me out of range"] or
    ["<who>: auth universe too small"]. *)

(** Who consumes the detector's ⟨SUSPECTED⟩ events. *)
type 'b suspicions =
  | Protocol of (Qs_core.Pid.t list -> unit)
      (** the protocol's own rule: a baseline mode's view change or
          rotation, or Follower Selection *)
  | Select of {
      f : int;
      wrap : Qs_core.Msg.t -> 'b;  (** the stack's UPDATE constructor *)
      on_quorum : Qs_core.Pid.t list -> unit;
    }
      (** Algorithm 1, created here: suspicions feed it and its UPDATEs
          are {!broadcast} as [wrap update] *)

val start : ('b, 'm) t -> deliver:(src:Qs_core.Pid.t -> 'm -> unit) -> 'b suspicions -> unit
(** Tie the detector's ⟨DELIVER⟩ to [deliver] and its ⟨SUSPECTED⟩ to the
    consumer; call once, right after the replica's own state exists. *)

val me : _ t -> Qs_core.Pid.t

val auth : _ t -> Qs_crypto.Auth.t

val sim : _ t -> Qs_sim.Sim.t

val set_fault : _ t -> fault -> unit

val send : ('b, _) t -> dst:Qs_core.Pid.t -> 'b -> unit
(** Seal and send one frame, unless the link fault drops it. *)

val multicast : ('b, _) t -> Qs_core.Pid.t list -> 'b -> unit
(** {!send} to every listed process except self (a group, the active set),
    sealing once. *)

val broadcast : ('b, _) t -> 'b -> unit
(** {!send} to all [n] processes including self, sealing once. *)

val receive : (_, 'm) t -> src:Qs_core.Pid.t -> 'm -> unit
(** The network handler: verify, check sealed sender = [src], then
    ⟨RECEIVE⟩ at the detector. *)

val detector : (_, 'm) t -> 'm Qs_fd.Detector.t

val timeouts : _ t -> Qs_fd.Timeout.t
(** The detector's adaptive table (the durable part of its state). *)

val selector : _ t -> Qs_core.Quorum_select.t option
(** The Algorithm-1 instance under {!Select}. *)

val update : _ t -> Qs_core.Msg.t -> unit
(** Hand a delivered UPDATE to the selector; ignored without one. *)

val execute_once : _ t -> Qs_sim.Smr_cluster.request -> bool
(** [true] the first time a (client, rid) is executed here, which is then
    appended to {!executed}; [false] on every redelivery. *)

val executed : _ t -> Qs_sim.Smr_cluster.request list
(** Requests admitted by {!execute_once}, oldest first. *)

val write_key : _ t -> Qs_stdx.State_key.t -> unit
(** The model-checker key of what the shell owns: the detector's suspected
    set and open-expectation count, then the {!Select} selector's key,
    tagged present or absent. Timeouts and deadlines are left out (see
    DESIGN.md). *)
