(** Follower Selection nodes over the synchronous gossip bus, with a small
    emulated failure detector per node.

    Mirrors {!Qs_core.Cluster} for Algorithm 2. The global FIFO queue also
    provides the FIFO-link assumption of Section VIII. The emulated detector
    keeps, per node, a transient suspicion set (driven by the test or
    adversary) and a permanent set (fed by Algorithm 2's ⟨DETECTED⟩
    reports); the union is what the node's [handle_suspected] sees. The
    FOLLOWERS expectation issued by Algorithm 2 is recorded so a scenario can
    fire its timeout explicitly ([fire_timeout]) — simulating a leader that
    omits its FOLLOWERS message. *)

type t

val create : Qs_core.Quorum_select.config -> t

val node : t -> Qs_core.Pid.t -> Follower_select.t

val auth : t -> Qs_crypto.Auth.t

val crash : t -> Qs_core.Pid.t -> unit

val fd_suspect : t -> at:Qs_core.Pid.t -> Qs_core.Pid.t list -> unit
(** Set the node's transient suspicion set (the permanent set is added
    automatically) and deliver the ⟨SUSPECTED⟩ event. *)

val open_expectation : t -> at:Qs_core.Pid.t -> (Qs_core.Pid.t * int) option
(** The (leader, epoch) FOLLOWERS expectation currently open at a node. *)

val fire_timeout : t -> at:Qs_core.Pid.t -> unit
(** Expire the node's open FOLLOWERS expectation: the expected leader is
    added to the transient suspicions and ⟨SUSPECTED⟩ is delivered. No-op if
    no expectation is open. *)

val deliver : t -> to_:Qs_core.Pid.t -> Fmsg.t -> unit
(** Enqueue an arbitrary message for one destination (adversary use). *)

val run_until_quiet : t -> unit

exception Bus_saturated

val agreed : t -> correct:Qs_core.Pid.t list -> (Qs_core.Pid.t * Qs_core.Pid.t list) option
(** Common (leader, quorum) of the given processes, if they agree. *)

val max_issued : t -> correct:Qs_core.Pid.t list -> int

val detected_log : t -> (Qs_core.Pid.t * Qs_core.Pid.t) list
(** (reporter, culprit) pairs, in order. *)

val messages_processed : t -> int
