(* tcp-steady: n=4, f=1 XPaxos in quorum-selection mode with a durable
   store, the runtime's [Node.Make] over loopback [Tcp.Make], and a closed
   loop of 8 logical clients, each keeping one request outstanding and
   rebroadcasting it the way [Cluster.run]'s client does. All clients run
   on the calling thread. No faults.

   A run is a fixed number of trials, each a fresh cluster (bind, connect,
   warm up) and [requests] requests, so per-commit cost is the same whatever
   the run length. *)

module Stime = Qs_sim.Stime
module Replica = Qs_xpaxos.Replica
module Xmsg = Qs_xpaxos.Xmsg
module Store = Qs_recovery.Store
module Prng = Qs_stdx.Prng
module Tcp = Qs_runtime.Tcp
module Corelock = Qs_runtime.Corelock
module Wallclock = Qs_runtime.Wallclock
module Fabric = Tcp.Make (Wrap.Wire)
module T = Wrap.Transport (Fabric)
module N = Qs_runtime.Node.Make (T)

let n = 4

let f = 1

let clients = 8

let requests = 400

let ms = Stime.of_ms

let resubmit_every = ms 200

let deadline = ms 2000

let config =
  {
    Replica.n;
    f;
    mode = Replica.Quorum_selection;
    initial_timeout = ms 1000;
    timeout_strategy = Qs_fd.Timeout.Exponential { factor = 2.0; max = ms 4000 };
  }

(* Anti-entropy gossip runs every [gossip_every_commits] global commits
   rather than on the shipped one-second timer: a State_push costs time
   that grows with the log, so a timer would land it at a different log
   length, or outside the measured phase, from one trial to the next. Each
   trial does the same gossip work whatever its speed. *)
let gossip_every_commits = 200

let rejoin_config =
  { (Qs_recovery.Rejoin.default_config ~n) with Qs_recovery.Rejoin.needed = 1; gossip_every = None }

type client = {
  id : int;
  mutable rid : int;
  mutable request : Xmsg.request option;
  mutable sent_at : Stime.t;
  mutable next_resubmit : Stime.t;
}

type trial = {
  setup_s : float;
  wall_s : float;
  cpu_s : float;  (** CPU time of the measured phase *)
  latencies_ms : float list;
  attempted : int;
  failed : int;
  committed : int;
  checks : (string * bool) list;
  counts : (string * float) list;
}

(* Take the core lock as the runtime's drivers do, timing the wait. *)
let locked f =
  let asked = Spans.now () in
  Corelock.with_lock (fun () ->
      Spans.sample "corelock.wait" (Spans.now () -. asked);
      f ())

let trial ~seed =
  Gc.compact ();
  let t_setup = Spans.now () in
  Qs_obs.Metrics.reset ();
  let prng = Prng.create seed in
  let addrs = Qs_runtime.Cluster.loopback_addrs ~n () in
  let fabric =
    Fabric.create ~addrs ~seed ~keepalive_every:(ms 50) ~reconnect_initial:(ms 5)
      ~reconnect_strategy:(Qs_fd.Timeout.Exponential { factor = 2.0; max = ms 500 })
      ~reconnect_jitter:0.2 ()
  in
  let clock = Fabric.clock fabric in
  for i = 0 to n - 1 do
    Fabric.start fabric ~me:i
  done;
  let auth = Qs_crypto.Auth.create n in
  (* Global commit: the (n-f)-th distinct replica executing a request, on
     the executing driver's thread under the core lock. *)
  let executed_by : (int * int, int list) Hashtbl.t = Hashtbl.create 4096 in
  let committed_at : (int * int, Stime.t) Hashtbl.t = Hashtbl.create 4096 in
  let commits = ref 0 in
  let on_commit = ref (fun () -> ()) in
  let nodes =
    locked (fun () ->
          Array.init n (fun me ->
              N.create ~config ~me ~auth ~transport:fabric ~store:(Store.create ()) ~rejoin_config
                ~on_execute:(fun ~slot:_ r ->
                  Spans.span "bench.execute" (fun () ->
                      let key = (r.Xmsg.client, r.Xmsg.rid) in
                      let by = Option.value ~default:[] (Hashtbl.find_opt executed_by key) in
                      if not (List.mem me by) then begin
                        Hashtbl.replace executed_by key (me :: by);
                        if List.length by + 1 = n - f && not (Hashtbl.mem committed_at key)
                        then begin
                          Hashtbl.add committed_at key (Wallclock.now clock);
                          incr commits;
                          !on_commit ()
                        end
                      end))
                ()))
  in
  let submit r =
    Array.iter
      (fun node ->
        Wrap.posting ~rid:((r.Xmsg.client * 1_000_000) + r.Xmsg.rid) "xpaxos.submit" (fun () ->
            N.submit node r))
      nodes
  in
  (* Warm-up: one request committed over freshly connected links. *)
  let warm = { Xmsg.client = 0; rid = 0; op = "warm-up" } in
  locked (fun () -> submit warm);
  let warm_deadline = Wallclock.now clock + ms 10_000 in
  let rec warm_up next =
    let now = Wallclock.now clock in
    let next =
      locked (fun () ->
          if now >= next then begin
            submit warm;
            now + resubmit_every
          end
          else next)
    in
    if (not (locked (fun () -> Hashtbl.mem committed_at (0, 0)))) && now < warm_deadline then begin
      Thread.delay 0.001;
      warm_up next
    end
  in
  warm_up (Wallclock.now clock + resubmit_every);
  let warmed = locked (fun () -> Hashtbl.mem committed_at (0, 0)) in
  let setup_s = Spans.now () -. t_setup in
  (* Measured phase. *)
  let stats0 = Array.init n (fun i -> Fabric.stats fabric ~me:i) in
  let t_run = Spans.now () and c_run = Metric.cpu_now () in
  Spans.active := !Spans.on;
  on_commit :=
    (fun () ->
      if !commits mod gossip_every_commits = 0 && !commits < requests then
        Array.iteri
          (fun me node ->
            Wrap.posting "recovery.push" (fun () ->
                T.post fabric me (fun () -> Qs_recovery.Rejoin.push_now (N.rejoin node))))
          nodes;
      (* Traced runs probe the cost of persisting a replica's state into a
         scratch store; the probe changes nothing the run measures. *)
      if !Spans.on && !commits mod 100 = 0 then
        Layers.persist_probe (N.replica nodes.(0)) ~commits:!commits);
  let cs =
    Array.init clients (fun i ->
        { id = 1 + (i * 64) + Prng.int prng 64; rid = 0; request = None; sent_at = 0;
          next_resubmit = 0 })
  in
  let issued = ref 0 and finished = ref 0 and failed = ref 0 in
  let latencies = ref [] in
  let issue c now =
    if !issued < requests then begin
      incr issued;
      c.rid <- c.rid + 1;
      let r = { Xmsg.client = c.id; rid = c.rid; op = Printf.sprintf "op-%d-%d" c.id c.rid } in
      c.request <- Some r;
      c.sent_at <- now;
      c.next_resubmit <- now + resubmit_every;
      submit r
    end
    else c.request <- None
  in
  let step () =
    Spans.span "bench.client" (fun () ->
        let now = Wallclock.now clock in
        Array.iter
          (fun c ->
            match c.request with
            | None -> if !issued < requests then issue c now
            | Some r -> (
              match Hashtbl.find_opt committed_at (r.Xmsg.client, r.Xmsg.rid) with
              | Some at ->
                latencies := (Stime.to_ms (at - c.sent_at)) :: !latencies;
                incr finished;
                issue c now
              | None ->
                if now - c.sent_at > deadline then begin
                  incr failed;
                  incr finished;
                  issue c now
                end
                else if now >= c.next_resubmit then begin
                  c.next_resubmit <- now + resubmit_every;
                  submit r
                end))
          cs)
  in
  let rec loop () =
    locked step;
    if !finished < requests then begin
      Thread.delay 0.0005;
      loop ()
    end
  in
  if warmed then loop ();
  Spans.active := false;
  let wall_s = Spans.now () -. t_run and cpu_s = Metric.cpu_now () -. c_run in
  let result =
    locked (fun () ->
        let hs =
          Array.to_list
            (Array.map
               (fun node ->
                 List.map
                   (fun (r : Xmsg.request) -> (r.Xmsg.client, r.Xmsg.rid))
                   (Replica.executed (N.replica node)))
               nodes)
        in
        let stats = Array.init n (fun i -> Fabric.stats fabric ~me:i) in
        let delta g = Array.fold_left ( + ) 0 (Array.mapi (fun i s -> g s - g stats0.(i)) stats) in
        let counts =
          Layers.cluster_counts ~replicas:(Array.map N.replica nodes)
            ~stores:(Array.map N.store nodes) ~rejoins:(Array.map N.rejoin nodes)
          @ [
              ("rejoin.seconds", wall_s);
              ("tcp.frames", float (delta (fun s -> s.Tcp.sent)));
              ("tcp.shed", float (delta (fun s -> s.Tcp.shed)));
              ("tcp.dup_dropped", float (delta (fun s -> s.Tcp.dup_dropped)));
              ("tcp.reconnects", float (delta (fun s -> s.Tcp.reconnects)));
            ]
        in
        let committed = List.length !latencies in
        {
          setup_s;
          wall_s;
          cpu_s;
          latencies_ms = !latencies;
          attempted = requests;
          failed = requests - committed;
          committed;
          checks =
            [
              ("warm-up-committed", warmed);
              ("prefix-agreement", Stats.prefix_consistent hs);
              ("every-request-accounted", committed + !failed = requests);
            ];
          counts;
        })
  in
  for i = 0 to n - 1 do
    Fabric.stop fabric ~me:i
  done;
  (* An acceptor stays blocked in accept() after its listening socket is
     closed, holding its endpoint. A throwaway connection wakes it to see
     the endpoint stopped and exit, so every thread of the trial ends and
     the trial's state can be collected. *)
  Array.iter
    (fun addr ->
      let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try Unix.connect s addr with Unix.Unix_error _ -> ());
      Unix.close s)
    addrs;
  Thread.delay 0.02;
  result

let run ~seed ~seconds =
  Wrap.one_way := true;
  (* Sized for about [seconds] of run time on a 2-core host. *)
  let ts =
    List.init (Metric.trials ~seconds ~per_second:0.8) (fun k ->
        trial ~seed:(Int64.of_int ((seed * 7919) + k)))
  in
  let nt = List.length ts in
  let commits = List.fold_left (fun a t -> a + t.committed) 0 ts in
  let attempted = List.fold_left (fun a t -> a + t.attempted) 0 ts in
  let failed = List.fold_left (fun a t -> a + t.failed) 0 ts in
  let wall = List.fold_left (fun a t -> a +. t.wall_s) 0. ts in
  let counts = List.map (fun t -> t.counts) ts in
  let mean key = Layers.total counts key /. float nt in
  let per_commit key = Layers.total counts key /. float (max 1 commits) in
  let v = Metric.v in
  let throughput =
    Stats.fast_quartile ~lower_is_better:false
      (List.map (fun t -> float t.committed /. t.wall_s) ts)
  in
  let us_latency name samples =
    Metric.latency ~p50:(name ^ "_us_p50") ~tail:(name ^ "_us_p99") "us"
      [ List.map Metric.us_of_s samples ]
  in
  let traced =
    if not !Spans.on then []
    else
      us_latency "tcp.post_wait" (Spans.samples_of "transport.post_wait")
      @ us_latency "tcp.one_way" (Spans.samples_of "transport.one_way")
      @ [
          v ~samples:(Spans.count_of_span "wire.encode") "envelope.encode_us" "us"
            (Layers.mean_self "wire.encode");
          v ~samples:(Spans.count_of_span "wire.decode") "envelope.decode_us" "us"
            (Layers.mean_self "wire.decode");
          v ~samples:commits "envelope.bytes_per_commit" "B"
            (float (Spans.count_of "wire.bytes") /. float (max 1 commits));
          (let waits = Spans.samples_of "corelock.wait" in
           v ~samples:(List.length waits) "corelock.wait_us" "us"
             (Metric.us_of_s (Metric.mean waits)));
        ]
      @ Layers.common ~units:commits
      @ Layers.split ~wall ~units:commits
  in
  let metrics =
    Metric.latency ~p50:"commit_p50_ms" ~tail:"commit_p99_ms" "ms"
      (List.map (fun t -> t.latencies_ms) ts)
    @ [
        v ~samples:nt "commits_per_s" "1/s" throughput;
        v "peak_heap_mb" "MB" (Metric.peak_heap_mb ());
        v ~samples:nt "setup_s" "s"
          (Stats.fast_quartile ~lower_is_better:true (List.map (fun t -> t.setup_s) ts));
        v ~samples:attempted "fail_frac" "ratio" (float failed /. float attempted);
        v ~samples:commits "tcp.frames_per_commit" "count" (per_commit "tcp.frames");
        v ~samples:nt "tcp.shed" "count" (mean "tcp.shed");
        v ~samples:nt "tcp.dup_dropped" "count" (mean "tcp.dup_dropped");
        v ~samples:nt "tcp.reconnects" "count" (mean "tcp.reconnects");
        v ~samples:nt "trace.commits_per_s" "1/s" throughput;
      ]
    @ Layers.cluster_metrics counts ~commits
    @ traced
  in
  let checks =
    List.map
      (fun (name, _) -> (name, List.for_all (fun t -> List.assoc name t.checks) ts))
      (List.hd ts).checks
  in
  {
    Metric.workload = "tcp-steady";
    checks;
    attempted;
    failed;
    metrics;
    notes =
      (if !Spans.on then [ Layers.persist_series () ] else [])
      @ [
        Printf.sprintf "trials=%d requests/trial=%d clients=%d" nt requests clients;
        Printf.sprintf "commits per CPU second %.2f"
          (Stats.fast_quartile ~lower_is_better:false
          (List.map (fun t -> float t.committed /. Float.max 1e-3 t.cpu_s) ts));
      ];
  }
