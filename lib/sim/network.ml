module Prng = Qs_stdx.Prng
module Metrics = Qs_obs.Metrics
module Journal = Qs_obs.Journal

type delay_model =
  | Fixed of Stime.t
  | Uniform of { lo : Stime.t; hi : Stime.t }
  | Eventually_synchronous of {
      gst : Stime.t;
      pre_lo : Stime.t;
      pre_hi : Stime.t;
      post_lo : Stime.t;
      post_hi : Stime.t;
    }

type 'm action = Deliver | Drop | Delay of Stime.t | Duplicate of int | Replace of 'm

type trace_kind = Send | Delivered | Dropped

type 'm filter = now:Stime.t -> src:int -> dst:int -> 'm -> 'm action

type filter_id = int

(* A message held by the controlled-mode pending set. Ids increase
   monotonically in send order, so per-link FIFO order is the id order. *)
type 'm held = { id : int; h_src : int; h_dst : int; payload : 'm }

type 'm t = {
  sim : Sim.t;
  n : int;
  delay : delay_model;
  fifo : bool;
  rng : Prng.t;
  handlers : (src:int -> 'm -> unit) option array;
  mutable chain : (filter_id * 'm filter) list; (* installation order *)
  mutable next_filter_id : filter_id;
  mutable tracer :
    (kind:trace_kind -> now:Stime.t -> src:int -> dst:int -> 'm -> unit) option;
  last_arrival : Stime.t array array; (* per-link FIFO watermark *)
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  link_counts : int array array;
  mutable controlled : bool;
  mutable pending_q : 'm held list; (* oldest first *)
  mutable next_msg_id : int;
  m_sent : Metrics.counter;
  m_delivered : Metrics.counter;
  m_dropped : Metrics.counter;
  m_latency : Metrics.histogram;
}

let create ~sim ~n ~delay ?(fifo = false) () =
  if n <= 0 then invalid_arg "Network.create: need at least one endpoint";
  (* Journal entries are stamped with virtual time; the most recently
     created network wins, which is right for the single-simulation runs the
     harnesses perform. *)
  Journal.set_clock (fun () -> Stime.to_ms (Sim.now sim));
  {
    sim;
    n;
    delay;
    fifo;
    rng = Prng.split (Sim.prng sim);
    handlers = Array.make n None;
    chain = [];
    next_filter_id = 0;
    tracer = None;
    last_arrival = Array.make_matrix n n Stime.zero;
    sent = 0;
    delivered = 0;
    dropped = 0;
    link_counts = Array.make_matrix n n 0;
    controlled = false;
    pending_q = [];
    next_msg_id = 0;
    m_sent = Metrics.counter "net_sent_total";
    m_delivered = Metrics.counter "net_delivered_total";
    m_dropped = Metrics.counter "net_dropped_total";
    m_latency = Metrics.histogram "net_delivery_latency_ms";
  }

let n t = t.n

let sim t = t.sim

let check t i = if i < 0 || i >= t.n then invalid_arg "Network: endpoint out of range"

let set_handler t i h =
  check t i;
  t.handlers.(i) <- Some h

let add_filter t f =
  let id = t.next_filter_id in
  t.next_filter_id <- id + 1;
  t.chain <- t.chain @ [ (id, f) ];
  id

let remove_filter t id = t.chain <- List.filter (fun (id', _) -> id' <> id) t.chain

let filter_count t = List.length t.chain

(* Resolve the whole chain (in installation order) into one verdict: the
   first [Drop] wins and short-circuits, [Delay]s accumulate, the largest
   [Duplicate] count wins, and a [Replace] substitutes the payload for every
   later filter and for delivery (last substitution wins). *)
let resolve t ~src ~dst m =
  let now = Sim.now t.sim in
  let rec fold m extra copies = function
    | [] -> `Deliver (m, extra, copies)
    | f :: rest -> (
      match f ~now ~src ~dst m with
      | Drop -> `Drop
      | Deliver -> fold m extra copies rest
      | Delay d -> fold m Stime.(extra + Stdlib.max 0 d) copies rest
      | Duplicate k -> fold m extra (Stdlib.max copies k) rest
      | Replace m' -> fold m' extra copies rest)
  in
  fold m 0 1 (List.map snd t.chain)

let set_tracer t f = t.tracer <- Some f

let trace t kind ~src ~dst m =
  match t.tracer with
  | None -> ()
  | Some f -> f ~kind ~now:(Sim.now t.sim) ~src ~dst m

let base_delay t =
  match t.delay with
  | Fixed d -> d
  | Uniform { lo; hi } -> Prng.int_in t.rng lo hi
  | Eventually_synchronous { gst; pre_lo; pre_hi; post_lo; post_hi } ->
    if Stime.compare (Sim.now t.sim) gst < 0 then Prng.int_in t.rng pre_lo pre_hi
    else Prng.int_in t.rng post_lo post_hi

let deliver t ~src ~dst ~latency m =
  t.delivered <- t.delivered + 1;
  Metrics.inc t.m_delivered;
  Metrics.observe t.m_latency (Stime.to_ms latency);
  if Journal.live () then Journal.record (Journal.Net_delivered { src; dst });
  trace t Delivered ~src ~dst m;
  match t.handlers.(dst) with
  | None -> ()
  | Some h -> h ~src m

let send t ~src ~dst m =
  check t src;
  check t dst;
  if src <> dst then begin
    t.sent <- t.sent + 1;
    t.link_counts.(src).(dst) <- t.link_counts.(src).(dst) + 1
  end;
  Metrics.inc t.m_sent;
  if Journal.live () then Journal.record (Journal.Net_sent { src; dst });
  trace t Send ~src ~dst m;
  let verdict =
    if src = dst then `Deliver (m, 0, 1) else resolve t ~src ~dst m
  in
  match verdict with
  | `Drop ->
    t.dropped <- t.dropped + 1;
    Metrics.inc t.m_dropped;
    if Journal.live () then Journal.record (Journal.Net_dropped { src; dst });
    trace t Dropped ~src ~dst m
  | `Deliver (m, _, copies) when t.controlled ->
    (* Controlled mode: park every surviving copy in the pending set instead
       of scheduling it; a model checker picks the delivery order explicitly
       via [deliver_now]. Extra [Delay] latency is meaningless here — time
       only advances when the checker steps the simulation — so only the
       Drop/Duplicate verdicts of the filter chain are observable. *)
    for _ = 1 to Stdlib.max 1 copies do
      let id = t.next_msg_id in
      t.next_msg_id <- id + 1;
      t.pending_q <- t.pending_q @ [ { id; h_src = src; h_dst = dst; payload = m } ]
    done
  | `Deliver (m, extra, copies) ->
    let schedule_one () =
      let latency = if src = dst then 1 else Stime.(base_delay t + extra) in
      let arrival = Stime.(Sim.now t.sim + Stdlib.max 1 latency) in
      let arrival =
        if t.fifo && Stime.compare arrival t.last_arrival.(src).(dst) <= 0 then
          Stime.(t.last_arrival.(src).(dst) + 1)
        else arrival
      in
      t.last_arrival.(src).(dst) <- arrival;
      let latency = Stime.(arrival - Sim.now t.sim) in
      Sim.schedule_at t.sim ~at:arrival (fun () -> deliver t ~src ~dst ~latency m)
    in
    for _ = 1 to Stdlib.max 1 copies do
      schedule_one ()
    done

let broadcast t ~src ?(include_self = true) m =
  for dst = 0 to t.n - 1 do
    if dst <> src || include_self then send t ~src ~dst m
  done

let sent_count t = t.sent

let delivered_count t = t.delivered

let dropped_count t = t.dropped

let link_sent t ~src ~dst =
  check t src;
  check t dst;
  t.link_counts.(src).(dst)

let reset_counters t =
  t.sent <- 0;
  t.delivered <- 0;
  t.dropped <- 0;
  Array.iter (fun row -> Array.fill row 0 t.n 0) t.link_counts

(* ------------------------------------------------------------------ *)
(* Controlled mode: the model checker's choice-point interface *)

let fifo t = t.fifo

let controlled t = t.controlled

let set_controlled t on = t.controlled <- on

let pending t = List.map (fun h -> (h.id, h.h_src, h.h_dst, h.payload)) t.pending_q

let pending_count t = List.length t.pending_q

(* The subset of pending messages a schedule may deliver next: everything
   when the network is unordered, only the oldest message per (src, dst) link
   when it is FIFO — delivering a younger one first would violate the
   ordering the protocols were built on (Follower Selection, Section VIII). *)
let deliverable t =
  if not t.fifo then pending t
  else begin
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun h ->
        let link = (h.h_src, h.h_dst) in
        if Hashtbl.mem seen link then None
        else begin
          Hashtbl.replace seen link ();
          Some (h.id, h.h_src, h.h_dst, h.payload)
        end)
      t.pending_q
  end

let deliver_now t id =
  match List.find_opt (fun h -> h.id = id) t.pending_q with
  | None -> false
  | Some h ->
    t.pending_q <- List.filter (fun h' -> h'.id <> id) t.pending_q;
    deliver t ~src:h.h_src ~dst:h.h_dst ~latency:0 h.payload;
    true

(* Channel-state reset for an amnesia crash: messages already in flight to a
   process that lost its volatile state would be delivered into the reborn
   incarnation as if nothing happened; a real crash loses them with the
   socket. Dropping them here is what lets the model checker explore
   recovery interleavings soundly. *)
let drop_pending_to t dst =
  let keep, lost = List.partition (fun h -> h.h_dst <> dst) t.pending_q in
  t.pending_q <- keep;
  List.iter
    (fun h ->
      t.dropped <- t.dropped + 1;
      if Journal.live () then
        Journal.record (Journal.Net_dropped { src = h.h_src; dst = h.h_dst }))
    lost;
  List.length lost

(* ------------------------------------------------------------------ *)
(* Snapshot / restore.

   Captures everything the network itself mutates: the pending set and id
   counter, the filter chain, counters and the FIFO watermarks. Deliberately NOT captured: the simulation queue (events hold
   closures; in controlled mode no delivery events are in flight, which is
   the only mode a checker forks in), the handlers/tracer (wiring, not
   state), and the global metrics registry and journal — module-level state
   the checker must reset separately (see DESIGN.md, "Model checking"). *)

type 'm snapshot = {
  s_pending : 'm held list;
  s_next_msg_id : int;
  s_controlled : bool;
  s_chain : (filter_id * 'm filter) list;
  s_next_filter_id : filter_id;
  s_last_arrival : Stime.t array array;
  s_sent : int;
  s_delivered : int;
  s_dropped : int;
  s_link_counts : int array array;
}

let snapshot t =
  {
    s_pending = t.pending_q;
    s_next_msg_id = t.next_msg_id;
    s_controlled = t.controlled;
    s_chain = t.chain;
    s_next_filter_id = t.next_filter_id;
    s_last_arrival = Array.map Array.copy t.last_arrival;
    s_sent = t.sent;
    s_delivered = t.delivered;
    s_dropped = t.dropped;
    s_link_counts = Array.map Array.copy t.link_counts;
  }

let restore t s =
  t.pending_q <- s.s_pending;
  t.next_msg_id <- s.s_next_msg_id;
  t.controlled <- s.s_controlled;
  t.chain <- s.s_chain;
  t.next_filter_id <- s.s_next_filter_id;
  Array.iteri (fun i row -> Array.blit row 0 t.last_arrival.(i) 0 t.n) s.s_last_arrival;
  t.sent <- s.s_sent;
  t.delivered <- s.s_delivered;
  t.dropped <- s.s_dropped;
  Array.iteri (fun i row -> Array.blit row 0 t.link_counts.(i) 0 t.n) s.s_link_counts
