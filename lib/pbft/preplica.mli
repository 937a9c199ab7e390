(** A PBFT replica (n = 3f+1) with two participation modes.

    [Full] is classic PBFT: every replica participates, PREPARE needs 2f
    matching votes beyond the PRE-PREPARE, COMMIT needs 2f+1 — so up to [f]
    silent replicas are {e masked} at the price of all-to-all traffic among
    all [n]. The only failure handled actively is a faulty primary
    (view change, primary rotation).

    [Selected] is the paper's proposal applied to PBFT (Section I): only an
    active quorum of [q = n−f = 2f+1] replicas runs the protocol. The
    thresholds are unchanged, which now means {e every} active replica must
    answer — nothing is masked — and each active replica issues
    expectations for every protocol message it awaits. Omissions or delays
    become suspicions, Algorithm 1 picks a new active quorum, and the
    passive replicas catch up through the NEW-VIEW log transfer.

    The two modes measured side by side are experiment E6's headline: the
    selected mode sends ≈ (q/n)² of the quadratic phases' messages, at the
    cost of reacting (cheaply) instead of masking.

    The view change is the same simplified log-carrying protocol as the
    XPaxos substrate (entries carry original pre-prepare signatures as
    provenance; commit certificates are not carried — see DESIGN.md §2). *)

type participation = Full | Selected

type config = {
  n : int;  (** must be 3f+1 *)
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
  sim:Qs_sim.Sim.t ->
  net_send:(dst:Qs_core.Pid.t -> Pmsg.t -> unit) ->
  ?on_execute:(slot:int -> Pmsg.request -> unit) ->
  unit ->
  t

val me : t -> Qs_core.Pid.t

val set_fault : t -> fault -> unit

val receive : t -> src:Qs_core.Pid.t -> Pmsg.t -> unit

val submit : t -> Pmsg.request -> unit

val view : t -> int

val primary : t -> Qs_core.Pid.t

val participants : t -> Qs_core.Pid.t list

val executed : t -> Pmsg.request list

val view_changes : t -> int

val detector : t -> Pmsg.t Qs_fd.Detector.t

val quorum_selector : t -> Qs_core.Quorum_select.t option
(** Present in [Selected] mode. *)

val write_key : t -> Qs_stdx.State_key.t -> unit
(** The model-checker key of the replica: its protocol state (view,
    participants, phase, slots with votes and marks, proposal and wait
    tables, stashed VIEW-CHANGEs), then {!Qs_shell.Shell.write_key}. *)
