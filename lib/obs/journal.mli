(** Structured protocol-event journal.

    Generalizes the ad-hoc [Network.set_tracer] hook into typed events that
    every instrumented layer can append to: the network (sends, deliveries,
    drops), the failure detector (suspicions raised and cleared), quorum
    selection (UPDATEs sent and merged, quorums issued, epoch advances) and
    XPaxos (view changes, commits).

    Recording is opt-in: a journal starts disabled and {!record} on a
    disabled journal is a cheap no-op, so the always-on instrumentation in
    the hot paths costs nothing unless a caller (CLI, test, experiment)
    turns the journal on. Entries carry a monotonic sequence number and the
    current virtual time as reported by the registered clock (the simulator
    wires its clock in at network creation). Capacity is bounded: the
    journal is a ring that drops its oldest entries, counting the drops. *)

type event =
  | Suspicion_raised of { who : int; suspect : int }
      (** [who]'s failure detector raised a suspicion on [suspect]. *)
  | Suspicion_cleared of { who : int; suspect : int }
      (** A late message proved the suspicion false. *)
  | Update_sent of { owner : int; epoch : int }
      (** [owner] broadcast its stamped suspicion row. *)
  | Update_merged of { who : int; owner : int }
      (** [who] merged new information from [owner]'s row. *)
  | Quorum_issued of { who : int; epoch : int; quorum : int list }
  | Epoch_advanced of { who : int; epoch : int }
  | View_change of { who : int; view : int; group : int list }
  | Commit of { who : int; slot : int }
  | Net_sent of { src : int; dst : int }
  | Net_delivered of { src : int; dst : int }
  | Net_dropped of { src : int; dst : int }
  | Recovery_started of { who : int }
      (** [who] restarted after an amnesia crash and began the rejoin
          protocol (broadcast its first [StateReq]). *)
  | Recovery_completed of { who : int; epoch : int; retries : int }
      (** [who]'s rejoin finished: enough [StateResp]s were max-merged.
          [epoch] is the fast-forwarded epoch, [retries] counts rebroadcast
          rounds beyond the first. *)
  | Rejoin_gave_up of { who : int; retries : int }
      (** [who]'s rejoin round exhausted its retry bound without [needed]
          valid responses: the process stays dormant (the safe failure
          mode) until an unsolicited push or a fresh {!Recovery_started}
          round revives it. *)
  | Reconfigured of { who : int; cepoch : int; n : int }
      (** [who]'s selector remapped its state onto membership epoch
          [cepoch] ([n] processes). *)
  | Config_changed of { cepoch : int; members : int list }
      (** The membership engine applied a config-change log entry:
          [members] is the new ordered pid set at epoch [cepoch]. *)
  | Member_joined of { pid : int; cepoch : int }
      (** [pid] was admitted at [cepoch]; it bootstraps through the rejoin
          plane and must stay dormant until {!Recovery_completed}. *)
  | Member_left of { pid : int; cepoch : int }
      (** [pid] left voluntarily at [cepoch] after a graceful drain. *)
  | Member_ejected of { pid : int; cepoch : int }
      (** An admitted evidence proof convicted [pid]; the config change at
          [cepoch] removes it permanently. *)
  | Proof_found of { by : int; culprit : int }
      (** [by]'s evidence store assembled a transferable equivocation proof
          against [culprit] (two validly-signed conflicting rows). *)
  | Proof_admitted of { by : int; culprit : int }
      (** [by] verified a (local or gossiped) proof and permanently excluded
          [culprit] from its future quorums. *)
  | Forgery_rejected of { by : int; channel : int; claimed : int }
      (** [by] received a frame on [channel] whose tag fails to verify under
          [claimed]'s key — a forgery; local quarantine only, never
          transferable evidence. *)
  | Custom of string  (** Escape hatch for harnesses and examples. *)

type entry = { seq : int; at : float; event : event }
(** [at] is virtual milliseconds from the registered clock (0 when no clock
    was registered). *)

type t

val create : ?capacity:int -> unit -> t
(** Disabled until {!set_enabled}. [capacity] defaults to 65536 entries. *)

val default : unit -> t
(** The calling domain's journal — what the instrumented protocol layers
    record into when [?j] is omitted. Domain-local like
    {!Metrics.default}, so a worker domain's subscribers only see their
    own domain's events. *)

val set_enabled : ?j:t -> bool -> unit

val live : ?j:t -> unit -> bool
(** [true] iff enabled — guard for avoiding event construction on hot
    paths. *)

val set_clock : ?j:t -> (unit -> float) -> unit

val record : ?j:t -> ?at:float -> event -> unit
(** No-op when disabled. [at] overrides the clock. *)

val subscribe : ?j:t -> (entry -> unit) -> int
(** Register an online observer, called synchronously with every recorded
    entry (only while the journal is enabled). The returned id feeds
    {!unsubscribe}. The invariant monitor of [Qs_faults] is the main
    client. *)

val unsubscribe : ?j:t -> int -> unit
(** Remove a subscriber; unknown ids are ignored. *)

val entries : ?j:t -> unit -> entry list
(** Oldest first. *)

val length : ?j:t -> unit -> int

val dropped : ?j:t -> unit -> int
(** Entries evicted by the capacity ring since the last {!clear}. *)

val clear : ?j:t -> unit -> unit
(** Drop all entries and reset [seq] and the drop counter; keeps the
    enabled flag and clock. *)

val event_to_string : event -> string

val to_json : ?j:t -> unit -> Json.t
(** [{"dropped": n, "events": [...]}] — oldest first. *)

val render : ?j:t -> unit -> string
(** One human-readable line per entry, oldest first. *)
