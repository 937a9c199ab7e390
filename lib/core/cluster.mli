(** A cluster of Quorum Selection nodes wired over a synchronous gossip bus.

    UPDATE messages go into one global FIFO queue; [run_until_quiet] drains
    it. This gives the deterministic, round-free setting the bound
    experiments need (Theorems 3 and 4 count quorum changes {e after} the
    failure detector is accurate, so network asynchrony is irrelevant — only
    the order of suspicion injections matters, and the adversary controls
    that explicitly here). The full asynchronous stack (network, failure
    detector, Algorithm 1) lives in [Qs_harness.Heartbeat].

    The adversary interacts through three entry points:
    - [fd_suspect]: make a node's failure detector report a suspicion set
      (a faulty process "earning" a suspicion, or issuing a false one);
    - [deliver_row]: hand a crafted, correctly-signed row of a {e faulty}
      process to one specific node — equivocation;
    - [crash]: stop a node from processing anything further. *)

type t

val create : Quorum_select.config -> t

val config : t -> Quorum_select.config

val node : t -> Pid.t -> Quorum_select.t

val auth : t -> Qs_crypto.Auth.t

val crash : t -> Pid.t -> unit

val is_crashed : t -> Pid.t -> bool

val fd_suspect : t -> at:Pid.t -> Pid.t list -> unit
(** Deliver ⟨SUSPECTED, S⟩ to the node's quorum-selection module. Does not
    drain the bus; call [run_until_quiet]. *)

val deliver_row : t -> owner:Pid.t -> row:int array -> to_:Pid.t -> unit
(** Enqueue a signed UPDATE for [owner]'s row to a single destination. *)

val run_until_quiet : t -> unit
(** Drain the bus. More than a million deliveries raise [Bus_saturated] —
    it would indicate non-termination. *)

exception Bus_saturated

val last_quorums : t -> Pid.t list array

val agreed_quorum : t -> correct:Pid.t list -> Pid.t list option
(** The common last quorum of the given processes, if they agree. *)

val max_issued : t -> correct:Pid.t list -> int
(** Largest number of quorums issued by any of the given processes — the
    quantity bounded by Theorems 3/4. *)

val messages_processed : t -> int

val quorum_log : t -> (Pid.t * Pid.t list) list
(** Every ⟨QUORUM⟩ event in global order: (issuer, quorum). *)
