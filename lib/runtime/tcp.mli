(** Real TCP transport: the {!Transport.TRANSPORT} carrier over sockets.

    Each started endpoint owns:

    - a {e driver thread} — its single execution context, advancing a
      private timer wheel to the wall clock ({!Qs_sim.Sim.advance_to}) and
      running posted closures under the process-wide core lock, so the
      protocol stack above stays exactly as single-threaded as in the
      simulator;
    - one {e supervised sender thread per peer} draining a bounded
      drop-oldest queue ({!Mailbox}) through a connection it re-establishes
      under exponential backoff with jitter ({!Qs_fd.Timeout.Backoff}),
      sending keepalives when idle;
    - an {e acceptor} spawning one receiver thread per inbound connection.

    Frames are length-prefixed and checksummed ({!Frame}); a corrupt frame
    quarantines (closes) only the connection that delivered it — the
    claimed sender is never marked, since the claim is unauthenticated at
    this layer. Receivers dedup by per-sender sequence high-watermark,
    reset when the sender's incarnation changes (a restarted process starts
    a fresh numbering). Delivery is at-most-once per frame; retransmission
    is the protocol layer's job (XPaxos resubmission, rejoin rebroadcast),
    which is the same contract the lossy simulated network offers. *)

type policy = { loss : float; extra_delay : Qs_sim.Stime.t }
(** Outgoing per-link shaping (nemesis): drop each frame with probability
    [loss] (per-link seeded PRNG), otherwise delay it [extra_delay]. *)

type stats = {
  sent : int;  (** data frames written (sequence numbers consumed) *)
  delivered : int;  (** data frames handed to the handler *)
  shed : int;  (** frames dropped by bounded-queue backpressure *)
  dup_dropped : int;  (** frames discarded by sequence dedup *)
  corrupt_rejected : int;  (** corrupt frames; each one killed its connection *)
  nemesis_dropped : int;  (** frames dropped by an armed loss policy *)
  reconnects : int;  (** successful re-connects beyond each link's first *)
  keepalives_seen : int;
}

module type WIRE = sig
  type msg

  val encode : msg -> string

  val decode : string -> msg
  (** Raises {!Qs_recovery.Codec.Corrupt}. *)
end

module Make (M : WIRE) : sig
  include Transport.TRANSPORT with type msg = M.msg

  val create :
    addrs:Unix.sockaddr array ->
    ?seed:int64 ->
    ?queue_capacity:int ->
    ?inbox_capacity:int ->
    ?keepalive_every:Qs_sim.Stime.t ->
    ?reconnect_initial:Qs_sim.Stime.t ->
    ?reconnect_strategy:Qs_fd.Timeout.strategy ->
    ?reconnect_jitter:float ->
    unit ->
    t
  (** A fabric of [Array.length addrs] endpoint slots, none started.
      Defaults: 256-frame send queues, 4096-closure inboxes, 50 ms
      keepalives, reconnect from 10 ms doubling to 1 s with ±20% jitter. *)

  val start : t -> me:int -> unit
  (** Bind and listen on [addrs.(me)], spawn the driver, acceptor and
      per-peer sender threads. [Invalid_argument] if already started. *)

  val stop : t -> me:int -> unit
  (** Close every queue, shut down every socket and release the slot;
      threads wind down asynchronously, each closing the sockets it owns
      (sender: its connection; receiver: its inbound connection; acceptor:
      the listening socket). Restarting the slot later gets a fresh
      incarnation. *)

  val clock : t -> Wallclock.t
  (** The fabric's shared wall clock (tick 0 = fabric creation). *)

  (** {2 Nemesis controls} — the live-fault counterpart of the simulated
      network's filter chain. *)

  val set_policy : t -> src:int -> dst:int -> policy option -> unit

  val kill_links : t -> me:int -> unit
  (** Shut down every live connection at [me] (both directions). The
      thread that owns each socket sees the error or end-of-file and closes
      it; senders then reconnect under backoff. No socket is closed from
      the calling thread, so no fd number is freed under a thread that
      still uses it. *)

  val set_refusing : t -> me:int -> bool -> unit
  (** While refusing, accepted connections are closed immediately — a
      connect-refusal window. *)

  val set_paused : t -> me:int -> bool -> unit
  (** While paused, {!Transport.TRANSPORT.send} from [me] discards
      silently — the crash/mute window. *)

  val stats : t -> me:int -> stats
end
