(** A MinBFT-style replica: n = 2f+1 with a simulated trusted component.

    The paper's second beneficiary class (Section I): systems that use
    trusted components to run with [n = 2f+1] replicas and [n − f = f+1]
    replies. Two phases: the primary's PREPARE carries a USIG certificate
    binding the request to a slot (uniqueness kills equivocation); replicas
    answer with COMMITs carrying their own certificates; a slot commits on
    [f+1] matching certificates — which in [Selected] mode means {e every}
    active replica.

    Modes mirror the PBFT substrate:
    - [Full]: all 2f+1 replicas participate; up to [f] silent {e backups}
      are masked. This demonstrator keeps the primary fixed (no rotation):
      primary fail-over is the view-change machinery already exercised by
      the XPaxos and PBFT substrates and is out of scope here.
    - [Selected]: an embedded Algorithm 1 picks the [f+1] active replicas;
      omissions inside the quorum raise expectations, suspicions re-select,
      and the (possibly new) primary re-proposes in a fresh configuration
      epoch. Execution is exactly-once per request id, like the chain and
      star demonstrators (DESIGN.md §2).

    USIG monotonicity is tracked per receiver; configuration changes resync
    the expected counters (gap evidence across epochs is not preserved —
    MinBFT's retransmission protocol is out of scope). *)

type participation = Full | Selected

type config = {
  n : int;  (** must be 2f+1 *)
  f : int;
  participation : participation;
  initial_timeout : Qs_sim.Stime.t;
  timeout_strategy : Qs_fd.Timeout.strategy;
}

type fault = Qs_shell.Shell.fault = Honest | Mute | Omit_to of Qs_core.Pid.t list

type t

val create :
  config ->
  me:Qs_core.Pid.t ->
  auth:Qs_crypto.Auth.t ->
  usig:Usig.t ->
  usig_directory:Usig.directory ->
  sim:Qs_sim.Sim.t ->
  net_send:(dst:Qs_core.Pid.t -> Mmsg.t -> unit) ->
  ?on_execute:(Mmsg.request -> unit) ->
  unit ->
  t

val me : t -> Qs_core.Pid.t

val set_fault : t -> fault -> unit

val receive : t -> src:Qs_core.Pid.t -> Mmsg.t -> unit

val submit : t -> Mmsg.request -> unit

val primary : t -> Qs_core.Pid.t

val active : t -> Qs_core.Pid.t list

val config_epoch : t -> int

val executed : t -> Mmsg.request list

val detector : t -> Mmsg.t Qs_fd.Detector.t

val quorum_selector : t -> Qs_core.Quorum_select.t option
(** The embedded Algorithm-1 instance under [Selected] participation. *)

val usig_gaps : t -> int
(** Certificates this replica refused for arriving out of counter order —
    omission evidence from the trusted component. *)

val write_key : t -> Qs_stdx.State_key.t -> unit
(** The model-checker key of the replica: its protocol state (active set,
    config epoch, USIG counters, executed requests, slots, proposal and
    wait tables), then {!Qs_shell.Shell.write_key}. *)
