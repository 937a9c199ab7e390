module Stime = Qs_sim.Stime
module Sim = Qs_sim.Sim
module Journal = Qs_obs.Journal
module Monitor = Qs_faults.Monitor
module Fault = Qs_faults.Fault
module Store = Qs_recovery.Store
module Replica = Qs_xpaxos.Replica
module Xmsg = Qs_xpaxos.Xmsg

(* Loopback harness: a full XPaxos cluster over real TCP on 127.0.0.1, a
   live nemesis, and the online invariant monitor verdicting the run — the
   end-to-end proof that the simulated stack survives contact with sockets,
   threads and the wall clock. *)

module Wire = struct
  type msg = Envelope.t

  let encode = Envelope.encode

  let decode = Envelope.decode
end

module T = Tcp.Make (Wire)
module N = Node.Make (T)

type report = {
  n : int;
  f : int;
  requests_submitted : int;
  committed : int;  (** requests executed by at least [n - f] replicas *)
  prefix_agreement : bool;  (** pairwise over the correct replicas *)
  violations : Monitor.violation list;
  monitor_checks : int;
  commits_observed : int;
  recoveries_completed : int;
  max_view : int;
  commit_latency_ns : int list;  (** per committed request, submit → global commit *)
  stats : Tcp.stats array;
  nemesis_installed : int;
  nemesis_unsupported : int;
}

let loopback_addrs ~n ?base_port () =
  match base_port with
  | Some p ->
    Array.init n (fun i ->
        Unix.ADDR_INET (Unix.inet_addr_loopback, p + i))
  | None ->
    (* Bind n ephemeral listeners to learn free ports, then release them.
       A race against other processes is possible but the window is tiny
       and start retries surface it as a bind failure, not silent havoc. *)
    let socks =
      Array.init n (fun _ ->
          let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.setsockopt s Unix.SO_REUSEADDR true;
          Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
          s)
    in
    let addrs =
      Array.map
        (fun s ->
          match Unix.getsockname s with
          | Unix.ADDR_INET (_, port) ->
            Unix.ADDR_INET (Unix.inet_addr_loopback, port)
          | addr -> addr)
        socks
    in
    Array.iter Unix.close socks;
    addrs


let run ?(seed = 1L) ?base_port ?(mode = Replica.Quorum_selection) ?(requests = 5)
    ?(request_timeout_ms = 4000) ?(duration_ms = 0) ?(schedule = []) ~n ~f () =
  if n < 2 || f < 0 || n <= 2 * f then
    invalid_arg "Cluster.run: need n > 2f >= 0 and n >= 2";
  let addrs = loopback_addrs ~n ?base_port () in
  let fabric =
    T.create ~addrs ~seed ~keepalive_every:(Stime.of_ms 50)
      ~reconnect_initial:(Stime.of_ms 5)
      ~reconnect_strategy:
        (Qs_fd.Timeout.Exponential { factor = 2.0; max = Stime.of_ms 500 })
      ~reconnect_jitter:0.2 ()
  in
  let clock = T.clock fabric in
  (* Observability: the shared journal on wall-clock milliseconds, with the
     monitor subscribed before any node exists. All recording and all
     subscriber callbacks happen under the core lock. *)
  Journal.clear ();
  Journal.set_clock (fun () -> Stime.to_ms (Wallclock.now clock));
  Journal.set_enabled true;
  let blamed = Fault.blamed ~n schedule in
  let correct =
    List.filter (fun p -> not (List.mem p blamed)) (List.init n (fun i -> i))
  in
  let in_model =
    match Fault.classify ~n ~f schedule with
    | Fault.In_model _ -> true
    | Fault.Out_of_model _ -> false
  in
  let monitor =
    Monitor.create
      {
        Monitor.n;
        f;
        correct;
        quorum_bound =
          (match mode with
           | Replica.Quorum_selection -> Some (Monitor.theorem3 ~f)
           | Replica.Enumeration -> None);
        bound_gauge = None;
        settle = Stime.of_ms 500;
        rejoin_retry_bound = (if in_model then Some 8 else None);
      }
  in
  let config =
    {
      Replica.n;
      f;
      mode;
      initial_timeout = Stime.of_ms 150;
      timeout_strategy =
        Qs_fd.Timeout.Exponential { factor = 2.0; max = Stime.of_ms 2000 };
    }
  in
  let auth = Qs_crypto.Auth.create n in
  for i = 0 to n - 1 do
    T.start fabric ~me:i
  done;
  (* Execution accounting: on_execute runs on the executing node's driver
     thread under the core lock, so plain tables are safe. *)
  let executions : (int * int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let commit_walltime : (int * int, Stime.t) Hashtbl.t = Hashtbl.create 64 in
  let quorum = n - f in
  let nodes =
    Array.init n (fun me ->
        N.create ~config ~me ~auth ~transport:fabric ~store:(Store.create ())
          ~on_execute:(fun ~slot:_ request ->
            let key = (request.Xmsg.client, request.Xmsg.rid) in
            let cell =
              match Hashtbl.find_opt executions key with
              | Some c -> c
              | None ->
                let c = ref [] in
                Hashtbl.add executions key c;
                c
            in
            if not (List.mem me !cell) then begin
              cell := me :: !cell;
              if
                List.length !cell = quorum
                && not (Hashtbl.mem commit_walltime key)
              then Hashtbl.add commit_walltime key (Wallclock.now clock)
            end)
          ())
  in
  Array.iter N.start_gossip nodes;
  (* Coordinator: a private timer wheel advanced to the wall clock by the
     calling thread, carrying the monitor's history probe and the nemesis
     phase transitions. *)
  let coord = Sim.create ~seed:(Int64.add seed 104729L) () in
  Monitor.attach_history_probe monitor ~sim:coord
    ~every:(Stime.of_ms 100) (fun () ->
      List.map
        (fun p ->
          ( p,
            List.map
              (fun (r : Xmsg.request) -> (r.Xmsg.client, r.Xmsg.rid))
              (Replica.executed (N.replica nodes.(p))) ))
        correct);
  let nemesis =
    Nemesis.install ~sim:coord
      ~controls:
        {
          Nemesis.set_policy = (fun ~src ~dst p -> T.set_policy fabric ~src ~dst p);
          kill_links = (fun ~me -> T.kill_links fabric ~me);
          set_refusing = (fun ~me r -> T.set_refusing fabric ~me r);
          set_paused = (fun ~me p -> T.set_paused fabric ~me p);
          amnesia = (fun p -> N.crash_amnesia nodes.(p));
        }
      ~n schedule
  in
  let tick () =
    Corelock.with_lock (fun () -> Sim.advance_to coord ~at:(Wallclock.now clock));
    Thread.delay 0.002
  in
  let wait_until ?(deadline = max_int) pred =
    let rec go () =
      let done_ = Corelock.with_lock pred in
      if (not done_) && Wallclock.now clock < deadline then begin
        tick ();
        go ()
      end
      else done_
    in
    go ()
  in
  (* Workload: one client, sequential requests, each broadcast to every
     node (an XPaxos client broadcasts after a timeout) and rebroadcast
     periodically until globally committed — the client-side retransmission
     the at-most-once transport requires. *)
  let committed = ref 0 in
  let latencies = ref [] in
  for k = 0 to requests - 1 do
    let request = { Xmsg.client = 0; rid = k; op = Printf.sprintf "op-%d" k } in
    let submitted_at = Wallclock.now clock in
    let deadline = submitted_at + Stime.of_ms request_timeout_ms in
    let submit_all () = Array.iter (fun node -> N.submit node request) nodes in
    submit_all ();
    let resubmit_every = Stime.of_ms 200 in
    let next_resubmit = ref (submitted_at + resubmit_every) in
    let ok =
      wait_until ~deadline (fun () ->
          if Wallclock.now clock >= !next_resubmit then begin
            next_resubmit := Wallclock.now clock + resubmit_every;
            submit_all ()
          end;
          Hashtbl.mem commit_walltime (0, k))
    in
    if ok then begin
      incr committed;
      let at = Hashtbl.find commit_walltime (0, k) in
      latencies := ((at - submitted_at) * 1000) :: !latencies
    end
  done;
  (* Let scheduled fault phases finish playing out, then settle. *)
  let horizon =
    List.fold_left
      (fun acc (ph : Fault.phase) ->
        let stop = match ph.Fault.stop with Some s -> s | None -> ph.Fault.start in
        Stime.max acc (Stime.max ph.Fault.start stop))
      0 schedule
  in
  let settle = Stime.of_ms 300 in
  let end_at =
    Stime.max (Wallclock.now clock + settle)
      (Stime.max horizon (Stime.of_ms duration_ms) + settle)
  in
  ignore (wait_until ~deadline:end_at (fun () -> false) : bool);
  let report =
    Corelock.with_lock (fun () ->
        Sim.advance_to coord ~at:(Wallclock.now clock);
        if in_model then
          Monitor.check_recovered monitor
            ~at:(Stime.to_ms (Wallclock.now clock));
        let histories =
          List.map
            (fun p ->
              List.map
                (fun (r : Xmsg.request) -> (r.Xmsg.client, r.Xmsg.rid))
                (Replica.executed (N.replica nodes.(p))))
            correct
        in
        {
          n;
          f;
          requests_submitted = requests;
          committed = !committed;
          prefix_agreement = Qs_sim.Smr_cluster.prefix_consistent histories;
          violations = Monitor.violations monitor;
          monitor_checks = Monitor.checks_run monitor;
          commits_observed = Monitor.commits_observed monitor;
          recoveries_completed =
            Array.fold_left
              (fun acc node ->
                acc + Qs_recovery.Rejoin.completed_rounds (N.rejoin node))
              0 nodes;
          max_view =
            Array.fold_left
              (fun acc node -> max acc (Replica.view (N.replica node)))
              0 nodes;
          commit_latency_ns = List.rev !latencies;
          stats = Array.init n (fun i -> T.stats fabric ~me:i);
          nemesis_installed = Nemesis.installed nemesis;
          nemesis_unsupported = Nemesis.unsupported nemesis;
        })
  in
  for i = 0 to n - 1 do
    T.stop fabric ~me:i
  done;
  Monitor.detach monitor;
  Journal.set_enabled false;
  report

let report_to_json (r : report) =
  let module Json = Qs_obs.Json in
  let stats_json (s : Tcp.stats) =
    Json.Obj
      [
        ("sent", Json.Int s.Tcp.sent);
        ("delivered", Json.Int s.Tcp.delivered);
        ("shed", Json.Int s.Tcp.shed);
        ("dup_dropped", Json.Int s.Tcp.dup_dropped);
        ("corrupt_rejected", Json.Int s.Tcp.corrupt_rejected);
        ("nemesis_dropped", Json.Int s.Tcp.nemesis_dropped);
        ("reconnects", Json.Int s.Tcp.reconnects);
        ("keepalives_seen", Json.Int s.Tcp.keepalives_seen);
      ]
  in
  Json.Obj
    [
      ("n", Json.Int r.n);
      ("f", Json.Int r.f);
      ("requests_submitted", Json.Int r.requests_submitted);
      ("committed", Json.Int r.committed);
      ("prefix_agreement", Json.Bool r.prefix_agreement);
      ("monitor_violations", Json.Int (List.length r.violations));
      ( "violations",
        Json.List (List.map Monitor.violation_to_json r.violations) );
      ("monitor_checks", Json.Int r.monitor_checks);
      ("commits_observed", Json.Int r.commits_observed);
      ("recoveries_completed", Json.Int r.recoveries_completed);
      ("max_view", Json.Int r.max_view);
      ( "commit_latency_ns",
        Json.List (List.map (fun x -> Json.Int x) r.commit_latency_ns) );
      ("stats", Json.List (Array.to_list (Array.map stats_json r.stats)));
      ("nemesis_installed", Json.Int r.nemesis_installed);
      ("nemesis_unsupported", Json.Int r.nemesis_unsupported);
    ]
