(** Simulated message-passing network.

    Reliable, asynchronous channels between [n] endpoints (paper, Section
    IV), with three extras the experiments need:

    - an {e eventually synchronous} delay model: before GST delays are drawn
      from a wide range, after GST from a narrow bounded one;
    - optional per-link FIFO delivery (the Follower Selection assumption,
      Section VIII);
    - a {e link-filter chain}: stackable hooks that may drop, further delay,
      or duplicate any message, used to implement Byzantine omission, timing
      and duplication failures on individual links. Correct-process links
      never get a filter, preserving reliability.

    All delivery is scheduled on the simulation queue; ties resolve in
    scheduling order, so runs are deterministic. *)

type delay_model =
  | Fixed of Stime.t
      (** Every message takes exactly this long. *)
  | Uniform of { lo : Stime.t; hi : Stime.t }
      (** Uniform in [lo, hi]. *)
  | Eventually_synchronous of {
      gst : Stime.t;
      pre_lo : Stime.t;
      pre_hi : Stime.t;
      post_lo : Stime.t;
      post_hi : Stime.t;
    }
      (** Before [gst], uniform in [pre_lo, pre_hi]; at or after, uniform in
          [post_lo, post_hi]. [post_hi] is the synchrony bound Δ. *)

type 'm action =
  | Deliver  (** Let the message through. *)
  | Drop  (** Omit it (omission failure on this link). *)
  | Delay of Stime.t  (** Add extra latency (timing failure). *)
  | Duplicate of int
      (** Deliver this many independent copies (duplication failure); each
          copy draws its own base delay. Values below 1 behave as 1. *)
  | Replace of 'm
      (** Substitute the payload (commission failure: equivocation variants,
          in-flight tampering). Later filters in the chain see the substituted
          payload; the last substitution wins. *)

type trace_kind = Send | Delivered | Dropped

type 'm t

val create :
  sim:Sim.t -> n:int -> delay:delay_model -> ?fifo:bool -> unit -> 'm t
(** [fifo] defaults to [false]. The network draws randomness from
    [Sim.prng]. *)

val n : _ t -> int

val sim : _ t -> Sim.t

val set_handler : 'm t -> int -> (src:int -> 'm -> unit) -> unit
(** Install the receive handler of endpoint [i]. Messages to an endpoint with
    no handler are counted as delivered but discarded. *)

type 'm filter = now:Stime.t -> src:int -> dst:int -> 'm -> 'm action

type filter_id

(** {2 Filter chain}

    Filters stack: every send (with [src <> dst]) consults every
    {!add_filter} entry in installation order. (A single-occupant
    [set_filter] slot consulted ahead of the chain existed through PR 9;
    all injectors — cluster harnesses included — now go through the chain,
    and the slot is gone.) The verdicts compose as follows:

    - the {e first} [Drop] wins and stops evaluation (later filters are not
      consulted for that message);
    - [Delay]s {e accumulate} — the extra latencies of every consulted filter
      are summed on top of the base delay-model draw;
    - for [Duplicate], the {e largest} requested copy count wins;
    - [Replace] substitutes the payload for every later filter and for
      delivery; the {e last} substitution wins;
    - [Deliver] is neutral.

    Self-sends ([src = dst]) never pass through filters. *)

val add_filter : 'm t -> 'm filter -> filter_id
(** Append a filter to the chain; the returned id removes exactly this
    filter. Fault injectors install one filter per active fault phase. *)

val remove_filter : 'm t -> filter_id -> unit
(** Remove a chained filter; unknown ids are ignored. *)

val filter_count : _ t -> int
(** Active filters in the chain. *)

val set_tracer :
  'm t -> (kind:trace_kind -> now:Stime.t -> src:int -> dst:int -> 'm -> unit) -> unit
(** Observe traffic (for the message-flow experiment E8 and debugging). *)

val send : 'm t -> src:int -> dst:int -> 'm -> unit
(** Transmit. [src = dst] is allowed ("to all including self", Algorithm 1)
    and delivered after the minimum one-tick step. *)

val broadcast : 'm t -> src:int -> ?include_self:bool -> 'm -> unit
(** Send to every endpoint; [include_self] defaults to [true]. *)

(** {2 Accounting} — message-complexity experiment E6. *)

val sent_count : _ t -> int
(** Messages submitted to the network (including later-dropped ones),
    excluding self-deliveries. *)

val delivered_count : _ t -> int

val dropped_count : _ t -> int

val link_sent : _ t -> src:int -> dst:int -> int

val reset_counters : _ t -> unit

(** {2 Controlled mode} — the model checker's choice-point interface.

    With [set_controlled t true], {!send} still runs the filter chain (so
    Drop faults and Duplicate copies apply) but every surviving copy is
    {e parked} in a pending set instead of being scheduled for delivery; the
    caller then delivers messages one at a time in any order it likes with
    {!deliver_now}. This turns delivery order into an explicit choice point:
    [lib/mc] enumerates the pending set to explore all interleavings.
    [Delay] verdicts are ignored in this mode — virtual time only advances
    when the caller steps the simulation. *)

val set_controlled : _ t -> bool -> unit

val controlled : _ t -> bool

val fifo : _ t -> bool
(** Whether the network preserves per-link order (fixed at {!create}). *)

val pending : 'm t -> (int * int * int * 'm) list
(** All parked messages, oldest first: [(id, src, dst, payload)]. Ids
    increase in send order and are unique for the life of the network. *)

val pending_count : _ t -> int

val deliverable : 'm t -> (int * int * int * 'm) list
(** The pending messages a schedule may deliver next: all of them on an
    unordered network, only the oldest per (src, dst) link on a FIFO one. *)

val deliver_now : 'm t -> int -> bool
(** Deliver the parked message with this id to its destination handler right
    now (latency 0). [false] if the id is not pending (already delivered or
    never parked) — replayed schedules treat that as a skip. *)

val drop_pending_to : _ t -> int -> int
(** Drop every pending message addressed to this process and return how many
    were lost. An amnesia crash resets channel state: in-flight messages die
    with the crashed incarnation rather than being delivered into the
    recovered one. Counted as drops (and journaled as [Net_dropped]). *)

(** {2 Snapshot / restore} — fork points for schedule exploration.

    A snapshot captures the network's own mutable state: pending set, id
    counter, controlled flag, filter chain, FIFO watermarks
    and counters. It does {e not} capture the simulation event queue (fork
    only from controlled, delivery-quiescent states), the handlers, or
    module-level observability state (metrics registry, journal) — callers
    reset those separately. *)

type 'm snapshot

val snapshot : 'm t -> 'm snapshot

val restore : 'm t -> 'm snapshot -> unit
