(** A leader-centric replica driven by Follower Selection (Algorithm 2).

    This is the protocol shape Section VIII assumes: the leader fans a
    signed LEAD out to its followers, collects their ACKs, and fans an APPLY
    back — followers never talk to each other, so only leader↔follower
    links carry expectations and the {e no leader suspicion} property is
    exactly what liveness needs. Per request: [3(q−1)] messages.

    The full Algorithm-2 event loop runs live here: the module wires
    Follower Selection's ⟨EXPECT⟩/⟨CANCEL⟩/⟨DETECTED⟩ to the real
    failure detector (a FOLLOWERS message from a fresh leader is expected
    with a timeout; omitting it earns a suspicion) and feeds ⟨SUSPECTED⟩
    sets back. A crashed follower is suspected by the leader (ACK
    expectation), a crashed leader by its followers (APPLY/LEAD and
    FOLLOWERS expectations); either way the maximal-line-subgraph leader
    moves on after O(f) changes (Theorem 9).

    Blame stays local the same way as on the chain: follower-side APPLY
    expectations run at 3× the base timeout, so the leader's 1× ACK
    expectation fires first and the re-selection cancels the rest.

    Execution semantics match the chain demonstrator: at-least-once
    delivery to the quorum, exactly-once execution per node via request-id
    dedupe (see DESIGN.md §2). *)

type config = {
  n : int;  (** requires n > 3f (Follower Selection's assumption) *)
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
  net_send:(dst:Qs_core.Pid.t -> Star_msg.t -> unit) ->
  ?on_execute:(Star_msg.request -> unit) ->
  unit ->
  t

val me : t -> Qs_core.Pid.t

val set_fault : t -> fault -> unit

val receive : t -> src:Qs_core.Pid.t -> Star_msg.t -> unit

val submit : t -> Star_msg.request -> unit

val leader : t -> Qs_core.Pid.t

val quorum : t -> Qs_core.Pid.t list

val is_leader : t -> bool

val quorum_epoch : t -> int
(** Number of (leader, quorum) reconfigurations performed. *)

val executed : t -> Star_msg.request list

val detector : t -> Star_msg.t Qs_fd.Detector.t

val selector : t -> Qs_follower.Follower_select.t

val write_key : t -> Qs_stdx.State_key.t -> unit
(** The model-checker key of the node: its protocol state (leader, quorum,
    quorum epoch, executed requests, slots with acks, proposal and wait
    tables, the Follower Selection instance), then
    {!Qs_shell.Shell.write_key}. *)
