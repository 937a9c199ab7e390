module Sim = Qs_sim.Sim
module Stime = Qs_sim.Stime
module Journal = Qs_obs.Journal
module Metrics = Qs_obs.Metrics
module Suspicion_matrix = Qs_core.Suspicion_matrix

type payload = { matrix : string; epoch : int; extra : string }

type msg =
  | State_req of { rid : int }
  | State_resp of { rid : int; payload : payload }
  | State_push of { payload : payload }
  | State_delta of { delta : string }
  | Delta_ack of { acks : (int * int) list }

type config = {
  n : int;
  needed : int;
  retry_every : Stime.t option;
  backoff : float;
  max_retries : int;
  gossip_every : Stime.t option;
}

let default_config ~n =
  {
    n;
    needed = 1;
    retry_every = Some (Stime.of_ms 50);
    backoff = 2.0;
    max_retries = 8;
    gossip_every = None;
  }

let validate_config c =
  if c.n <= 1 then invalid_arg "Rejoin: need at least two processes";
  if c.needed < 1 || c.needed > c.n - 1 then
    invalid_arg "Rejoin: needed must be in [1, n-1]";
  if c.backoff < 1.0 then invalid_arg "Rejoin: backoff must be >= 1.0";
  if c.max_retries < 0 then invalid_arg "Rejoin: max_retries must be >= 0";
  (match c.retry_every with
  | Some d when Stime.compare d Stime.zero <= 0 ->
    invalid_arg "Rejoin: retry_every must be positive"
  | _ -> ());
  match c.gossip_every with
  | Some d when Stime.compare d Stime.zero <= 0 ->
    invalid_arg "Rejoin: gossip_every must be positive"
  | _ -> ()

(* Attached delta-gossip engine: when present, gossip ticks ship per-peer
   deltas, with every [full_every]-th tick broadcasting the usual full
   [State_push] as the anti-entropy backstop. *)
type delta_link = {
  engine : Qs_core.Delta.t;
  on_merge : unit -> unit;
  full_every : int;
  mutable ticks : int;
}

type t = {
  sim : Sim.t;
  config : config;
  me : int;
  collect : unit -> payload;
  adopt : matrix:Suspicion_matrix.t -> epoch:int -> extra:string -> unit;
  send : dst:int -> msg -> unit;
  mutable rid : int;
  mutable rejoining : bool;
  mutable responded : int list;
  (* Validated payloads received while rejoining, newest first. Adoption is
     deferred to completion so a non-completing response (needed > 1, or a
     gossip push racing the reply) cannot wake the dormant selector inside
     the monitor's stale-state window; if the rejoin never completes they
     are simply dropped — staying dormant is the safe failure mode. *)
  mutable pending : payload list;
  mutable retries : int;
  mutable completed : int;
  mutable bad_payloads : int;
  mutable gossip_on : bool;
  mutable delta : delta_link option;
  mutable gossip_bytes : int; (* payload bytes shipped by gossip ticks *)
  mutable gave_up : int;
  m_reqs : Metrics.counter;
  m_resps : Metrics.counter;
  m_retries : Metrics.counter;
  m_rejoins : Metrics.counter;
  m_bad : Metrics.counter;
  m_gave_up : Metrics.counter;
  g_attempts : Metrics.gauge;
}

let create ~sim config ~me ~collect ~adopt ~send () =
  validate_config config;
  if me < 0 || me >= config.n then invalid_arg "Rejoin.create: me out of range";
  let labels = [ ("p", string_of_int me) ] in
  {
    sim;
    config;
    me;
    collect;
    adopt;
    send;
    rid = 0;
    rejoining = false;
    responded = [];
    pending = [];
    retries = 0;
    completed = 0;
    bad_payloads = 0;
    gossip_on = false;
    delta = None;
    gossip_bytes = 0;
    gave_up = 0;
    m_reqs = Metrics.counter ~labels "rec_state_reqs_total";
    m_resps = Metrics.counter ~labels "rec_state_resps_total";
    m_retries = Metrics.counter ~labels "rec_retries_total";
    m_rejoins = Metrics.counter ~labels "rec_rejoins_total";
    m_bad = Metrics.counter ~labels "rec_bad_payloads_total";
    m_gave_up = Metrics.counter ~labels "rec_gave_up_total";
    g_attempts = Metrics.gauge ~labels "rec_round_attempts";
  }

let broadcast t msg =
  for dst = 0 to t.config.n - 1 do
    if dst <> t.me then t.send ~dst msg
  done

let request t =
  Metrics.inc t.m_reqs;
  broadcast t (State_req { rid = t.rid })

let rec schedule_retry t delay =
  match t.config.retry_every with
  | None -> ()
  | Some _ ->
    let rid = t.rid in
    Sim.schedule t.sim ~delay (fun () ->
        if t.rejoining && t.rid = rid then
          if t.retries < t.config.max_retries then begin
            t.retries <- t.retries + 1;
            Metrics.inc t.m_retries;
            Metrics.set t.g_attempts (float_of_int (t.retries + 1));
            request t;
            schedule_retry t
              (Stdlib.max 1
                 (int_of_float (float_of_int delay *. t.config.backoff)))
          end
          else begin
            (* Retry bound exhausted with the round still open: the process
               stays dormant (the safe failure mode), but no longer
               silently — operators see the counter, the monitor sees the
               event. An unsolicited push or a fresh [start] still heals. *)
            t.gave_up <- t.gave_up + 1;
            Metrics.inc t.m_gave_up;
            if Journal.live () then
              Journal.record
                (Journal.Rejoin_gave_up { who = t.me; retries = t.retries })
          end)

let start t =
  t.rid <- t.rid + 1;
  t.rejoining <- true;
  t.responded <- [];
  t.pending <- [];
  t.retries <- 0;
  Metrics.set t.g_attempts 1.0;
  if Journal.live () then Journal.record (Journal.Recovery_started { who = t.me });
  request t;
  match t.config.retry_every with
  | None -> ()
  | Some d -> schedule_retry t d

let adopt_one t (p : payload) =
  (* Already validated when buffered; re-decoding is cheap and keeps the
     pending list immutable (snapshot-friendly). *)
  t.adopt ~matrix:(Codec.decode_matrix p.matrix) ~epoch:p.epoch ~extra:p.extra

(* Decode before anything else: a corrupt response must neither complete
   the rejoin nor touch protocol state. While rejoining, valid payloads are
   buffered; at completion the journal gets Recovery_completed {e first},
   then every buffered payload is adopted (the merge is a join, so arrival
   order is irrelevant) — any Quorum_issued the re-evaluation emits lands
   after Recovery_completed, outside the monitor's stale-state window.
   Outside a rejoin, payloads are adopted immediately: that is the normal
   anti-entropy path. *)
let absorb_payload t ~src ~completes payload =
  let valid =
    payload.epoch >= 1
    && match Codec.decode_matrix payload.matrix with
       | (_ : Suspicion_matrix.t) -> true
       | exception Codec.Corrupt _ -> false
  in
  if not valid then begin
    t.bad_payloads <- t.bad_payloads + 1;
    Metrics.inc t.m_bad
  end
  else if not t.rejoining then adopt_one t payload
  else begin
    t.pending <- payload :: t.pending;
    if completes && not (List.mem src t.responded) then begin
      t.responded <- src :: t.responded;
      if List.length t.responded >= t.config.needed then begin
        t.rejoining <- false;
        t.completed <- t.completed + 1;
        Metrics.inc t.m_rejoins;
        let epoch =
          List.fold_left (fun acc p -> Stdlib.max acc p.epoch) 1 t.pending
        in
        if Journal.live () then
          Journal.record
            (Journal.Recovery_completed
               { who = t.me; epoch; retries = t.retries });
        let batch = List.rev t.pending in
        t.pending <- [];
        List.iter (adopt_one t) batch
      end
    end
  end

let handle t ~src msg =
  match msg with
  | State_req { rid } ->
    (* A request is the "I lost my state" signal: whatever [src] acked
       before its crash no longer exists over there, so the delta layer must
       start over for it — otherwise those rows would never re-ship. *)
    (match t.delta with
    | Some d -> Qs_core.Delta.reset_peer d.engine ~peer:src
    | None -> ());
    Metrics.inc t.m_resps;
    t.send ~dst:src (State_resp { rid; payload = t.collect () })
  | State_resp { rid; payload } ->
    absorb_payload t ~src ~completes:(rid = t.rid) payload
  | State_push { payload } -> absorb_payload t ~src ~completes:false payload
  | State_delta { delta } -> (
    match t.delta with
    | None -> () (* no engine attached: deltas are not for this node *)
    | Some d -> (
      match Codec.decode_delta delta with
      | exception Codec.Corrupt _ ->
        t.bad_payloads <- t.bad_payloads + 1;
        Metrics.inc t.m_bad
      | packet -> (
        match Qs_core.Delta.apply d.engine packet with
        | exception Invalid_argument _ ->
          t.bad_payloads <- t.bad_payloads + 1;
          Metrics.inc t.m_bad
        | changed, ack ->
          t.send ~dst:src (Delta_ack { acks = ack.Qs_core.Delta.rows });
          (* Unlike a full State_push, a partial delta is never buffered or
             adopted: it cannot wake a dormant process ([on_merge] is the
             dormancy-respecting re-evaluation), so merging during an open
             rejoin round is safe anti-entropy. *)
          if changed then d.on_merge ())))
  | Delta_ack { acks } -> (
    match t.delta with
    | None -> ()
    | Some d -> Qs_core.Delta.apply_ack d.engine ~peer:src { Qs_core.Delta.rows = acks })

(* One immediate unsolicited push — the graceful-leave anti-entropy
   handoff: a departing process ships its whole matrix to every peer so no
   suspicion it uniquely holds dies with it. *)
let push_full t =
  let payload = t.collect () in
  t.gossip_bytes <- t.gossip_bytes + ((t.config.n - 1) * String.length payload.matrix);
  broadcast t (State_push { payload })

let push_deltas t d =
  for dst = 0 to t.config.n - 1 do
    if dst <> t.me then
      match Qs_core.Delta.make_packet d.engine ~peer:dst with
      | None -> () (* peer fully acked: no message, no allocation *)
      | Some packet ->
        let s = Codec.encode_delta packet in
        t.gossip_bytes <- t.gossip_bytes + String.length s;
        t.send ~dst (State_delta { delta = s })
  done

(* Low-rate anti-entropy: periodically push our own state to every peer.
   Merges are idempotent, so the only cost is bandwidth; the benefit is
   that processes cut off for longer than any rejoin retry window (a long
   partition) still converge once connectivity returns. With a delta engine
   attached, ticks ship per-peer unacked rows and only every [full_every]-th
   tick pays for the full matrix. *)
let rec schedule_gossip t delay =
  Sim.schedule t.sim ~delay (fun () ->
      if t.gossip_on then begin
        (match t.delta with
        | None -> push_full t
        | Some d ->
          d.ticks <- d.ticks + 1;
          if d.ticks mod d.full_every = 0 then push_full t else push_deltas t d);
        schedule_gossip t delay
      end)

let set_delta t engine ~on_merge ~full_every =
  if full_every < 1 then invalid_arg "Rejoin.set_delta: full_every must be >= 1";
  if Qs_core.Delta.n engine <> t.config.n || Qs_core.Delta.me engine <> t.me then
    invalid_arg "Rejoin.set_delta: engine/process mismatch";
  t.delta <- Some { engine; on_merge; full_every; ticks = 0 }

let push_now t = push_full t

let gossip_bytes t = t.gossip_bytes

let start_gossip t =
  match t.config.gossip_every with
  | None -> invalid_arg "Rejoin.start_gossip: config has no gossip_every"
  | Some d ->
    if not t.gossip_on then begin
      t.gossip_on <- true;
      schedule_gossip t d
    end

let rejoining t = t.rejoining

let retries t = t.retries

let completed_rounds t = t.completed

let bad_payloads t = t.bad_payloads

let rid t = t.rid

let responded t = t.responded

let buffered t = t.pending

let gave_up t = t.gave_up

(* ------------------------------------------------------------------ *)
(* Model-checker hooks *)

let encode_payload p =
  Printf.sprintf "%d|%d:%s|%d:%s" p.epoch
    (String.length p.matrix) p.matrix
    (String.length p.extra) p.extra

let encode_msg = function
  | State_req { rid } -> Printf.sprintf "REQ|%d" rid
  | State_resp { rid; payload } ->
    Printf.sprintf "RESP|%d|%s" rid (encode_payload payload)
  | State_push { payload } -> Printf.sprintf "PUSH|%s" (encode_payload payload)
  | State_delta { delta } -> Printf.sprintf "DELTA|%d:%s" (String.length delta) delta
  | Delta_ack { acks } ->
    Printf.sprintf "ACK|%s"
      (String.concat ","
         (List.map (fun (l, v) -> Printf.sprintf "%d=%d" l v) acks))

module State_key = Qs_stdx.State_key

let write_payload key ~matrix p =
  matrix key p.matrix;
  State_key.add key p.epoch;
  State_key.add_string key p.extra

(* Responders are a set (relabeled, written sorted). The buffer keeps its
   order: arrival positions are schedule positions, which the relabeled
   execution shares. *)
let write_key t key ~matrix =
  State_key.add key t.rid;
  State_key.add_bool key t.rejoining;
  State_key.add_pids_sorted key t.responded;
  State_key.add key t.retries;
  State_key.add key t.completed;
  State_key.add key t.bad_payloads;
  State_key.add key t.gave_up;
  State_key.add_list key (write_payload key ~matrix) t.pending

let write_msg key ~matrix = function
  | State_req { rid } ->
    State_key.add key 0;
    State_key.add key rid
  | State_resp { rid; payload } ->
    State_key.add key 1;
    State_key.add key rid;
    write_payload key ~matrix payload
  | State_push { payload } ->
    State_key.add key 2;
    write_payload key ~matrix payload
  | State_delta { delta } ->
    State_key.add key 3;
    State_key.add_string key delta
  | Delta_ack { acks } ->
    State_key.add key 4;
    State_key.add_list key
      (fun (l, v) ->
        State_key.add key l;
        State_key.add key v)
      acks

type snapshot = {
  s_rid : int;
  s_rejoining : bool;
  s_responded : int list;
  s_pending : payload list;
  s_retries : int;
  s_completed : int;
  s_bad : int;
  s_gave_up : int;
}

let snapshot t =
  {
    s_rid = t.rid;
    s_rejoining = t.rejoining;
    s_responded = t.responded;
    s_pending = t.pending;
    s_retries = t.retries;
    s_completed = t.completed;
    s_bad = t.bad_payloads;
    s_gave_up = t.gave_up;
  }

let restore t s =
  t.rid <- s.s_rid;
  t.rejoining <- s.s_rejoining;
  t.responded <- s.s_responded;
  t.pending <- s.s_pending;
  t.retries <- s.s_retries;
  t.completed <- s.s_completed;
  t.bad_payloads <- s.s_bad;
  t.gave_up <- s.s_gave_up
