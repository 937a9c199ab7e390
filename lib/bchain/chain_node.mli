(** A BChain-style chain replica driven by Quorum Selection.

    The active quorum, ordered by process id, forms a chain: the head signs
    a ⟨slot, request⟩ binding and forwards it; each member passes it to its
    successor; the tail starts an ack wave back to the head. Per request
    this costs [2(q−1)] messages instead of the [q²−1] of the all-to-all
    XPaxos pattern — the reduction the paper attributes to BChain
    (Section I).

    Failure handling shows quorum selection at its best: after forwarding,
    each member {e expects} the ack from its successor, so an omission
    anywhere on the chain is blamed on the exact culprit (its predecessor
    suspects it), the suspicion gossips through Algorithm 1, and the next
    quorum — hence the next chain — excludes it.

    Scope (documented substitution, DESIGN.md §2): this is a topology and
    selection demonstrator, not a full BChain reimplementation. A request
    executes at a node when its slot's ack arrives (at-least-once delivery
    to the chain, exactly-once execution per node via request-id dedupe);
    BChain's re-configuration/commit-certificate machinery for cross-epoch
    total order is out of scope. *)

type config = {
  n : int;
  f : int;
  initial_timeout : Qs_sim.Stime.t;
  timeout_strategy : Qs_fd.Timeout.strategy;
}

type fault = Qs_shell.Shell.fault = Honest | Mute | Omit_to of Qs_core.Pid.t list

type t

val create :
  config ->
  me:Qs_core.Pid.t ->
  auth:Qs_crypto.Auth.t ->
  sim:Qs_sim.Sim.t ->
  net_send:(dst:Qs_core.Pid.t -> Chain_msg.t -> unit) ->
  ?on_execute:(Chain_msg.request -> unit) ->
  unit ->
  t

val me : t -> Qs_core.Pid.t

val set_fault : t -> fault -> unit

val receive : t -> src:Qs_core.Pid.t -> Chain_msg.t -> unit

val submit : t -> Chain_msg.request -> unit
(** Client entry point: heads propose, the head's successor starts expecting
    the forward, everyone else ignores. Duplicates are ignored once the
    request executed. *)

val chain : t -> Qs_core.Pid.t list
(** The current chain (the quorum-selection output), head first. *)

val head : t -> Qs_core.Pid.t

val chain_epoch : t -> int
(** Bumped on every re-chaining. *)

val executed : t -> Chain_msg.request list
(** Execution log, oldest first. *)

val detector : t -> Chain_msg.t Qs_fd.Detector.t

val quorum_selector : t -> Qs_core.Quorum_select.t

val write_key : t -> Qs_stdx.State_key.t -> unit
(** The model-checker key of the node: its protocol state (chain, chain
    epoch, executed requests, slots, proposal and wait tables), then
    {!Qs_shell.Shell.write_key}. *)
