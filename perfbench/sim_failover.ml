(* sim-failover: n=7, f=2 XPaxos in quorum-selection mode, the runtime's
   [Node.Make] over [Transport.Sim] with seeded Uniform 0.5-1.5 ms FIFO
   links, an open loop of one request per virtual ms (Poisson arrivals) and
   a fault episode that hits the current leader and heals: a mute, an
   amnesia crash then rejoin, or a link delay longer than the timeout, the
   three in turn across trials.

   A run is a fixed number of trials, each a fresh cluster offered
   [requests] requests, so per-commit cost — which grows with log length — is the same
   whatever the run length. The simulation is deterministic: a trial's
   counts and virtual latencies are a function of its seed alone. *)

module Stime = Qs_sim.Stime
module Sim = Qs_sim.Sim
module Network = Qs_sim.Network
module Prng = Qs_stdx.Prng
module Envelope = Qs_runtime.Envelope
module Replica = Qs_xpaxos.Replica
module Xmsg = Qs_xpaxos.Xmsg
module Store = Qs_recovery.Store
module Rejoin = Qs_recovery.Rejoin
module Monitor = Qs_faults.Monitor
module Journal = Qs_obs.Journal
module Metrics = Qs_obs.Metrics

module SimT = Qs_runtime.Transport.Sim (struct
  type msg = Envelope.t
end)

module T = Wrap.Transport (SimT)
module N = Qs_runtime.Node.Make (T)

let n = 7

let f = 2

let requests = 300

let clients = 16

let ms = Stime.of_ms

let resubmit_every = ms 40

let deadline = ms 1000

type fault = Mute | Amnesia | Slow_link

let fault_name = function Mute -> "mute" | Amnesia -> "amnesia" | Slow_link -> "slow-link"

(* A fault episode as planned from the seed; the victim is whoever leads
   when it starts. *)
type plan = { kind : fault; at : Stime.t; lasts : Stime.t }

(* One episode per trial: onset 60-120 ms into the measured phase, lasting
   40-80 ms, healed well before the last request. *)
let plan_episodes prng ~start ~kind =
  let at = start + ms (Prng.int_in prng 60 120) in
  [ { kind; at; lasts = ms (Prng.int_in prng 40 80) } ]

(* Every trial starts in view 0, whose leader p0 is the one process the
   episode hits: the trial stays within f, and the monitor knows it. *)
let blamed = [ 0 ]

let kinds = [| Mute; Amnesia; Slow_link |]

type trial = {
  setup_s : float;
  wall_s : float;  (** wall time of the measured phase *)
  cpu_s : float;  (** CPU time of the measured phase *)
  latencies_ms : float list;  (** virtual, per committed request *)
  attempted : int;
  failed : int;
  committed : int;  (** measured requests committed *)
  outages_ms : float option list;
  episodes : (fault * int) list;  (** kind and victim, in order *)
  histories : (int * int) list list;  (** per replica, executed (client, rid) *)
  checks : (string * bool) list;
  counts : (string * float) list;
}

let config =
  {
    Replica.n;
    f;
    mode = Replica.Quorum_selection;
    initial_timeout = ms 20;
    timeout_strategy = Qs_fd.Timeout.Exponential { factor = 2.0; max = ms 80 };
  }

let trial ?(requests = requests) ~kind ~seed () =
  Gc.compact ();
  let t_setup = Spans.now () in
  Metrics.reset ();
  Journal.clear ();
  Journal.set_enabled true;
  let sim = Sim.create ~seed () in
  let prng = Prng.split (Sim.prng sim) in
  let net =
    Network.create ~sim ~n ~delay:(Network.Uniform { lo = 500; hi = 1500 }) ~fifo:true ()
  in
  let transport = SimT.create ~net in
  let auth = Qs_crypto.Auth.create n in
  let monitor =
    Monitor.create
      {
        Monitor.n;
        f;
        correct = List.filter (fun p -> not (List.mem p blamed)) (List.init n Fun.id);
        (* Faults here heal, and a healed process legitimately rejoins
           quorums its suspecters are in, which the no-suspicion check (armed
           together with the bound) does not model; Theorem 3's bound is
           checked directly at the end of the trial instead. *)
        quorum_bound = None;
        bound_gauge = None;
        settle = ms 50;
        rejoin_retry_bound = Some 8;
      }
  in
  (* Global commit: the (n-f)-th distinct replica executing a request. *)
  let executed_by : (int * int, int list) Hashtbl.t = Hashtbl.create 1024 in
  let committed_at : (int * int, Stime.t) Hashtbl.t = Hashtbl.create 1024 in
  let commits = ref 0 in
  let on_commit = ref (fun () -> ()) in
  let nodes =
    Array.init n (fun me ->
        N.create ~config ~me ~auth ~transport ~store:(Store.create ())
          ~on_execute:(fun ~slot:_ r ->
            Spans.span "bench.execute" (fun () ->
                let key = (r.Xmsg.client, r.Xmsg.rid) in
                let by = Option.value ~default:[] (Hashtbl.find_opt executed_by key) in
                if not (List.mem me by) then begin
                  Hashtbl.replace executed_by key (me :: by);
                  if List.length by + 1 = n - f && not (Hashtbl.mem committed_at key) then begin
                    Hashtbl.add committed_at key (Sim.now sim);
                    incr commits;
                    !on_commit ()
                  end
                end))
          ())
  in
  Array.iter N.start_gossip nodes;
  let histories () =
    List.init n (fun p ->
        List.map
          (fun (r : Xmsg.request) -> (r.Xmsg.client, r.Xmsg.rid))
          (Replica.executed (N.replica nodes.(p))))
  in
  Monitor.attach_history_probe monitor ~sim ~every:(ms 50) (fun () ->
      List.mapi (fun p h -> (p, h)) (histories ()));
  let down = Array.make n false in
  let submit r =
    Array.iteri
      (fun p node ->
        if not down.(p) then
          Wrap.posting ~rid:((r.Xmsg.client * 1_000_000) + r.Xmsg.rid) "xpaxos.submit" (fun () ->
              N.submit node r))
      nodes
  in
  (* Warm-up: one request committed before measuring. *)
  let warm = { Xmsg.client = 0; rid = 0; op = "warm-up" } in
  submit warm;
  let rec settle () =
    if not (Hashtbl.mem committed_at (0, 0)) then begin
      Sim.advance_to sim ~at:(Sim.now sim + ms 5);
      settle ()
    end
  in
  settle ();
  let setup_s = Spans.now () -. t_setup in
  (* Measured phase: the arrival schedule, the client ids and the fault
     episodes, all drawn from the trial seed. *)
  let t_run = Spans.now () and c_run = Metric.cpu_now () in
  Spans.active := !Spans.on;
  let start = Sim.now sim + ms 1 in
  let ids = Array.make clients 0 in
  Array.iteri (fun i _ -> ids.(i) <- 1 + (i * 64) + Prng.int prng 64) ids;
  let next_rid = Array.make clients 0 in
  let arrivals = Array.make requests (0, { Xmsg.client = 0; rid = 0; op = "" }) in
  let clock = ref start in
  for k = 0 to requests - 1 do
    let c = Prng.int prng clients in
    next_rid.(c) <- next_rid.(c) + 1;
    let r = { Xmsg.client = ids.(c); rid = next_rid.(c); op = Printf.sprintf "op-%d" k } in
    arrivals.(k) <- (!clock, r);
    (* Exponential inter-arrival with mean 1 ms, in whole microseconds. *)
    let u = Prng.float prng 1.0 in
    clock := !clock + max 1 (int_of_float (-1000. *. log (1. -. u)))
  done;
  let plans = plan_episodes prng ~start ~kind in
  let rec offer r ~due =
    Spans.span "bench.client" (fun () ->
        if not (Hashtbl.mem committed_at (r.Xmsg.client, r.Xmsg.rid)) then begin
          submit r;
          if Sim.now sim + resubmit_every < due + deadline then
            Sim.schedule sim ~delay:resubmit_every (fun () -> offer r ~due)
        end)
  in
  Array.iter (fun (at, r) -> Sim.schedule_at sim ~at (fun () -> offer r ~due:at)) arrivals;
  let episodes = ref [] in
  let leader () =
    (* The leader as seen by the most advanced replica not under a fault. *)
    let best = ref 0 in
    Array.iteri
      (fun p node ->
        if (not down.(p)) && Replica.view (N.replica node) > Replica.view (N.replica nodes.(!best))
        then best := p)
      nodes;
    Replica.leader (N.replica nodes.(!best))
  in
  List.iter
    (fun plan ->
      Sim.schedule_at sim ~at:plan.at (fun () ->
          Spans.span "bench.fault" (fun () ->
              let victim = leader () in
              episodes := (plan.kind, victim) :: !episodes;
              let filter =
                match plan.kind with
                | Mute ->
                  fun ~now:_ ~src ~dst:_ _ -> if src = victim then Network.Drop else Network.Deliver
                | Amnesia ->
                  down.(victim) <- true;
                  fun ~now:_ ~src ~dst _ ->
                    if src = victim || dst = victim then Network.Drop else Network.Deliver
                | Slow_link ->
                  fun ~now:_ ~src ~dst:_ _ ->
                    if src = victim then Network.Delay (ms 150) else Network.Deliver
              in
              let id = Network.add_filter net filter in
              Sim.schedule sim ~delay:plan.lasts (fun () ->
                  Spans.span "bench.fault" (fun () ->
                      Network.remove_filter net id;
                      if plan.kind = Amnesia then begin
                        down.(victim) <- false;
                        ignore (Network.drop_pending_to net victim : int);
                        Wrap.posting "recovery.amnesia" (fun () -> N.crash_amnesia nodes.(victim))
                      end)))))
    plans;
  (* Traced runs probe the cost of persisting the leader's state into a
     scratch store every 100 commits; the probe leaves the run unchanged. *)
  if !Spans.on then
    on_commit :=
      (fun () ->
        if !commits mod 100 = 0 then
          Layers.persist_probe (N.replica nodes.(leader ())) ~commits:!commits);
  let last_due = fst arrivals.(requests - 1) in
  let all_done () =
    Array.for_all (fun (_, r) -> Hashtbl.mem committed_at (r.Xmsg.client, r.Xmsg.rid)) arrivals
  in
  let rec drive () =
    if Sim.now sim < last_due + deadline && not (Sim.now sim >= last_due && all_done ()) then begin
      Sim.advance_to sim ~at:(Sim.now sim + ms 10);
      drive ()
    end
  in
  drive ();
  Spans.active := false;
  let wall_s = Spans.now () -. t_run and cpu_s = Metric.cpu_now () -. c_run in
  Monitor.check_recovered monitor ~at:(Stime.to_ms (Sim.now sim));
  let latencies_ms, commit_list, failed =
    Array.fold_left
      (fun (ls, cs, failed) (due, r) ->
        match Hashtbl.find_opt committed_at (r.Xmsg.client, r.Xmsg.rid) with
        | Some at when at - due <= deadline ->
          ( Stime.to_ms (at - due) :: ls,
            { Stats.submitted = Stime.to_ms due; committed = Stime.to_ms at } :: cs,
            failed )
        | _ -> (ls, cs, failed + 1))
      ([], [], 0) arrivals
  in
  let episodes_done = List.rev !episodes in
  let outages_ms =
    Stats.outages
      ~episodes:
        (List.map (fun p -> { Stats.onset = Stime.to_ms p.at }) plans)
      ~commits:commit_list
  in
  let hs = histories () in
  (* The no-suspicion check presumes faults are permanent: it also flags a
     quorum that readmits a victim after its fault healed. Those are not
     safety violations here; every other check counts. *)
  let readmits_healed_victim (v : Monitor.violation) =
    v.Monitor.check = "no-suspicion"
    && List.exists
         (fun p ->
           let suffix = Printf.sprintf "has suspected p%d since" p in
           let ls = String.length suffix and ld = String.length v.Monitor.detail in
           let rec find i =
             i + ls <= ld && (String.sub v.Monitor.detail i ls = suffix || find (i + 1))
           in
           find 0)
         blamed
  in
  let violations =
    List.filter (fun v -> not (readmits_healed_victim v)) (Monitor.violations monitor)
  in
  List.iter
    (fun v -> Printf.eprintf "sim-failover: monitor: %s\n" (Monitor.violation_to_string v))
    violations;
  Monitor.detach monitor;
  Journal.set_enabled false;
  let counts =
    Layers.cluster_counts ~replicas:(Array.map N.replica nodes)
      ~stores:(Array.map N.store nodes) ~rejoins:(Array.map N.rejoin nodes)
    @ [
        ("rejoin.seconds", Stime.to_ms (Sim.now sim) /. 1000.);
        ("sim.events", float (Sim.events_executed sim));
        ("net.msgs", float (Network.sent_count net));
        ("net.dropped", float (Network.dropped_count net));
      ]
  in
  let checks =
    [
      ("prefix-agreement", Stats.prefix_consistent hs);
      ("monitor-safety", violations = []);
      ("every-request-accounted", List.length latencies_ms + failed = requests);
      ("every-episode-recovered", List.for_all Option.is_some outages_ms);
      ("victims-blamed", List.for_all (fun (_, p) -> List.mem p blamed) episodes_done);
      ( "theorem3-bound",
        Array.for_all
          (fun node ->
            List.mem (N.me node) blamed
            ||
            match Replica.quorum_selector (N.replica node) with
            | Some s -> Qs_core.Quorum_select.max_issued_per_epoch s <= Monitor.theorem3 ~f
            | None -> true)
          nodes );
    ]
  in
  {
    setup_s;
    wall_s;
    cpu_s;
    latencies_ms;
    attempted = requests;
    failed;
    committed = List.length latencies_ms;
    outages_ms;
    episodes = episodes_done;
    histories = hs;
    checks;
    counts;
  }

(* Sized for about [seconds] of run time on a 2-core host. *)
let trials ~seed ~seconds =
  List.init (Metric.trials ~seconds ~per_second:1.4) (fun k ->
      let kind = kinds.((k + Int64.to_int seed) mod Array.length kinds) in
      trial ~kind ~seed:(Int64.add (Int64.mul seed 7919L) (Int64.of_int k)) ())

let run ~seed ~seconds =
  let ts = trials ~seed ~seconds in
  let total key = Layers.total (List.map (fun t -> t.counts) ts) key in
  let mean_of key = total key /. float (List.length ts) in
  let commits = List.fold_left (fun a t -> a + t.committed) 0 ts in
  let per_commit key = total key /. float (max 1 commits) in
  let outages = List.concat_map (fun t -> List.filter_map Fun.id t.outages_ms) ts in
  let attempted = List.fold_left (fun a t -> a + t.attempted) 0 ts in
  let failed = List.fold_left (fun a t -> a + t.failed) 0 ts in
  let wall = List.fold_left (fun a t -> a +. t.wall_s) 0. ts in
  let nt = List.length ts in
  let v = Metric.v in
  let traced_layers = Layers.split ~wall ~units:commits in
  (* A traced run reports its throughput as trace.commits_per_s, beside the
     untraced commits_per_s, to show the tracing overhead. *)
  let throughput =
    Stats.fast_quartile ~lower_is_better:false
      (List.map (fun t -> float t.committed /. t.wall_s) ts)
  in
  let metrics =
    Metric.latency ~p50:"commit_p50_ms" ~tail:"commit_p99_ms" "ms"
      (List.map (fun t -> t.latencies_ms) ts)
    @ [
        v ~samples:nt "commits_per_s" "1/s" throughput;
        v "peak_heap_mb" "MB" (Metric.peak_heap_mb ());
        v ~samples:nt "setup_s" "s"
          (Stats.fast_quartile ~lower_is_better:true (List.map (fun t -> t.setup_s) ts));
        v ~samples:(List.length outages) "outage_ms" "ms" (Stats.median outages);
        v ~samples:(List.length outages) "outage_max_ms" "ms" (List.fold_left Float.max 0. outages);
        v ~samples:attempted "fail_frac" "ratio" (float failed /. float attempted);
        v ~samples:commits "sim.events_per_commit" "count" (per_commit "sim.events");
        v ~samples:commits "net.msgs_per_commit" "count" (per_commit "net.msgs");
        v ~samples:nt "net.dropped" "count" (mean_of "net.dropped");
      ]
    @ Layers.cluster_metrics (List.map (fun t -> t.counts) ts) ~commits
    @ Layers.common ~units:commits
    @ traced_layers
    @ [ v ~samples:nt "trace.commits_per_s" "1/s" throughput ]
  in
  let episodes = List.concat_map (fun t -> t.episodes) ts in
  let notes =
    (if !Spans.on then [ Layers.persist_series () ] else [])
    @ [
      Printf.sprintf "commits per CPU second %.2f"
        (Stats.fast_quartile ~lower_is_better:false
          (List.map (fun t -> float t.committed /. Float.max 1e-3 t.cpu_s) ts));
      Printf.sprintf "trials=%d requests/trial=%d episodes: %s" nt requests
        (String.concat ", "
           (List.map
              (fun k ->
                let hits = List.filter (fun (k', _) -> k' = k) episodes in
                Printf.sprintf "%d %s on p%s" (List.length hits) (fault_name k)
                  (String.concat "/p"
                     (List.map string_of_int (List.sort_uniq compare (List.map snd hits)))))
              (Array.to_list kinds)));
    ]
  in
  let checks =
    List.map
      (fun (name, _) -> (name, List.for_all (fun t -> List.assoc name t.checks) ts))
      (List.hd ts).checks
  in
  { Metric.workload = "sim-failover"; checks; attempted; failed; metrics; notes }
