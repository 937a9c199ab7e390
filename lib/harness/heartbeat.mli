(** The full Fig.-1 stack on a heartbeat application.

    The paper assumes "every process is expected to send infinitely many
    messages … the case in systems that use heartbeats" (Section II). This
    module builds exactly that minimal application: every process
    periodically broadcasts a signed heartbeat and tells its failure
    detector to expect the next heartbeat from every peer. Crashed or
    link-omitting processes earn suspicions; the suspicions drive
    Algorithm 1 over the simulated network; the cluster converges on a
    quorum of live processes.

    This is the cleanest end-to-end validation of
    network → detector → quorum selection without any replication protocol
    in the way, and the engine behind experiment E10.

    Each process is a {!Qs_shell.Shell} in [Select] mode, the same signed
    links, detector and Algorithm-1 wiring the five replicas run on. What
    stays here is heartbeat-specific: the rounds, the time-scheduled crash
    (a crashed process neither sends nor receives), the timed
    {!omit_link} filter and {!inject}. *)

type config = {
  n : int;
  f : int;
  heartbeat_period : Qs_sim.Stime.t;
  initial_timeout : Qs_sim.Stime.t;
  timeout_strategy : Qs_fd.Timeout.strategy;
}

type t

val create :
  ?seed:int64 -> ?delay:Qs_sim.Network.delay_model -> config -> t

val sim : t -> Qs_sim.Sim.t

val crash : t -> Qs_core.Pid.t -> Qs_sim.Stime.t -> unit
(** Schedule a crash: the process stops sending heartbeats (and everything
    else) at the given time. *)

val omit_link : t -> src:Qs_core.Pid.t -> dst:Qs_core.Pid.t -> from:Qs_sim.Stime.t -> unit
(** Schedule a permanent omission failure on one link. *)

val inject : t -> Qs_faults.Fault.schedule -> unit
(** Compile a fault schedule onto the heartbeat network through
    {!Qs_faults.Injector}. The [Equivocate] hook speaks the heartbeat wire
    format: while armed, the source's own suspicion rows are replaced per
    destination by a re-signed variant inflating a fake suspicion of the
    recipient — the Section VI-C scenario where equivocation "only causes
    Quorum Selection to terminate faster". Call before {!run}. *)

val run : ?until:Qs_sim.Stime.t -> t -> unit

val agreed_quorum : t -> correct:Qs_core.Pid.t list -> Qs_core.Pid.t list option

val convergence_time : t -> correct:Qs_core.Pid.t list -> expect_excluded:Qs_core.Pid.t list -> Qs_sim.Stime.t option
(** Earliest simulation time after which every correct process's quorum
    excluded all of [expect_excluded] and never changed again. [None] if
    that never stabilized. *)

val quorum_changes : t -> correct:Qs_core.Pid.t list -> int
(** Max quorums issued by any of the given processes. *)

val false_suspicion_total : t -> correct:Qs_core.Pid.t list -> int

val matrices_agree : t -> correct:Qs_core.Pid.t list -> bool
(** All listed processes hold identical suspicion matrices — the
    eventual-consistency claim of Section VI-A, checkable at quiescence even
    under equivocated rows (the max-merge absorbs the union). *)
