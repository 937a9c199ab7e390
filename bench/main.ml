(* Benchmark harness.

   Two layers, matching DESIGN.md section 4:

   1. The reproduction tables: every table/figure-level claim of the paper
      (E1..E8) is regenerated and printed with its verdicts. This is the
      output recorded in EXPERIMENTS.md.

   2. Bechamel micro/macro benchmarks: one [Test.make] per experiment
      (regenerating that table end-to-end) plus microbenchmarks of the hot
      building blocks (independent sets, line subgraphs, matrix merges,
      adversary games, a full XPaxos commit).

   Usage:
     dune exec bench/main.exe                 # tables + benchmarks
     dune exec bench/main.exe -- --tables     # tables only
     dune exec bench/main.exe -- --micro      # benchmarks only
     dune exec bench/main.exe -- --quick      # trimmed sweeps + short quota (CI)
     dune exec bench/main.exe -- --json[=F]   # also write a machine-readable
                                              # summary (default BENCH_qsel.json)
                                              # so the perf trajectory across
                                              # PRs has data points *)

open Bechamel
open Toolkit
module Experiments = Qs_harness.Experiments
module Graph = Qs_graph.Graph
module Indep = Qs_graph.Indep
module Line = Qs_graph.Line_subgraph
module Theorem4 = Qs_adversary.Theorem4

(* ------------------------------------------------------------------ *)
(* Benchmark subjects *)

(* An adversarially loaded suspect graph: the Theorem-4 end state for f=4 on
   n=12 — the worst realistic input for the quorum search. *)
let adversarial_graph () =
  let setup = Theorem4.default_setup ~n:12 ~f:4 in
  let game = Theorem4.greedy setup in
  let g = Graph.create 12 in
  List.iter (fun (a, b) -> Graph.add_edge g (min a b) (max a b)) game.Theorem4.injections;
  g

let bench_lex_first =
  let g = adversarial_graph () in
  Test.make ~name:"indep/lex-first-IS n=12 f=4"
    (Staged.stage (fun () -> ignore (Indep.lex_first_independent_set g 8)))

let bench_max_is =
  let g = adversarial_graph () in
  Test.make ~name:"indep/max-IS n=12 f=4"
    (Staged.stage (fun () -> ignore (Indep.max_independent_set_size g)))

let bench_line_subgraph =
  let g = adversarial_graph () in
  Test.make ~name:"line-subgraph/maximal n=12"
    (Staged.stage (fun () -> ignore (Line.maximal g)))

let bench_matrix_merge =
  let a = Qs_core.Suspicion_matrix.create 16 in
  let row = Array.init 16 (fun i -> i mod 3) in
  Test.make ~name:"matrix/merge-row n=16"
    (Staged.stage (fun () -> ignore (Qs_core.Suspicion_matrix.merge_row a ~owner:1 row)))

let bench_sha256 =
  let payload = String.make 1024 'x' in
  Test.make ~name:"crypto/sha256 1KiB"
    (Staged.stage (fun () -> ignore (Qs_crypto.Sha256.digest_string payload)))

let bench_theorem4_greedy =
  Test.make ~name:"adversary/theorem4-greedy f=4"
    (Staged.stage (fun () ->
         ignore (Theorem4.greedy (Theorem4.default_setup ~n:10 ~f:4))))

let bench_quorum_round =
  Test.make ~name:"cluster/suspicion-round n=7 f=2"
    (Staged.stage (fun () ->
         let c = Qs_core.Cluster.create { Qs_core.Quorum_select.n = 7; f = 2 } in
         Qs_core.Cluster.fd_suspect c ~at:0 [ 5 ];
         Qs_core.Cluster.run_until_quiet c))

let bench_xpaxos_commit =
  let config =
    {
      Qs_xpaxos.Replica.n = 5;
      f = 2;
      mode = Qs_xpaxos.Replica.Enumeration;
      initial_timeout = Qs_sim.Stime.of_ms 50;
      timeout_strategy = Qs_fd.Timeout.Fixed;
    }
  in
  Test.make ~name:"xpaxos/request-commit n=5 f=2"
    (Staged.stage (fun () ->
         let c = Qs_xpaxos.Xcluster.create config in
         ignore (Qs_xpaxos.Xcluster.submit c "op");
         Qs_xpaxos.Xcluster.run c))

let bench_pbft_commit participation name =
  let config =
    {
      Qs_pbft.Preplica.n = 7;
      f = 2;
      participation;
      initial_timeout = Qs_sim.Stime.of_ms 50;
      timeout_strategy = Qs_fd.Timeout.Fixed;
    }
  in
  Test.make ~name
    (Staged.stage (fun () ->
         let c = Qs_pbft.Pcluster.create config in
         ignore (Qs_pbft.Pcluster.submit c "op");
         Qs_pbft.Pcluster.run c))

let micro_group =
  Test.make_grouped ~name:"micro"
    [
      bench_lex_first;
      bench_max_is;
      bench_line_subgraph;
      bench_matrix_merge;
      bench_sha256;
      bench_theorem4_greedy;
      bench_quorum_round;
      bench_xpaxos_commit;
      bench_pbft_commit Qs_pbft.Preplica.Full "pbft/commit full n=7";
      bench_pbft_commit Qs_pbft.Preplica.Selected "pbft/commit selected n=7";
    ]

(* Scaling of the NP-hard selection step (Section VI-C: "for small graphs,
   e.g. including only tenth of nodes, it is easy to compute"): the
   lexicographically-first independent set on the Theorem-4 adversary's end
   state, the densest suspicion graph a model-respecting execution
   produces. *)
let scaling_group =
  let subject n =
    let f = (n - 2) / 3 in
    let setup = Theorem4.default_setup ~n ~f in
    let game = Theorem4.greedy setup in
    let g = Graph.create n in
    List.iter (fun (a, b) -> Graph.add_edge g (min a b) (max a b)) game.Theorem4.injections;
    (g, n - f)
  in
  Test.make_grouped ~name:"scaling"
    (List.map
       (fun n ->
         let g, q = subject n in
         Test.make ~name:(Printf.sprintf "lex-first-IS n=%02d (adversarial)" n)
           (Staged.stage (fun () -> ignore (Indep.lex_first_independent_set g q))))
       [ 10; 20; 30; 40; 50 ])

(* One Test.make per reproduced table/figure: regenerating it end-to-end. *)
let experiment_group =
  let quick_fs = [ 1; 2 ] in
  Test.make_grouped ~name:"experiments"
    [
      Test.make ~name:"E1 fig4" (Staged.stage (fun () -> ignore (Experiments.e1 ())));
      Test.make ~name:"E2 upper-bound"
        (Staged.stage (fun () -> ignore (Experiments.e2 ~fs:quick_fs ())));
      Test.make ~name:"E3 lower-bound"
        (Staged.stage (fun () -> ignore (Experiments.e3 ~fs:quick_fs ())));
      Test.make ~name:"E4 follower"
        (Staged.stage (fun () -> ignore (Experiments.e4 ~fs:quick_fs ())));
      Test.make ~name:"E5 view-changes"
        (Staged.stage (fun () -> ignore (Experiments.e5 ~fs:quick_fs ())));
      Test.make ~name:"E6 messages" (Staged.stage (fun () -> ignore (Experiments.e6 ())));
      Test.make ~name:"E7 detector" (Staged.stage (fun () -> ignore (Experiments.e7 ())));
      Test.make ~name:"E8 flows" (Staged.stage (fun () -> ignore (Experiments.e8 ())));
      Test.make ~name:"E9 chain" (Staged.stage (fun () -> ignore (Experiments.e9 ())));
      Test.make ~name:"E10 stack" (Staged.stage (fun () -> ignore (Experiments.e10 ())));
      Test.make ~name:"E11 star"
        (Staged.stage (fun () -> ignore (Experiments.e11 ())));
      Test.make ~name:"E12 recovery"
        (Staged.stage (fun () -> ignore (Experiments.e12 ())));
    ]

(* ------------------------------------------------------------------ *)
(* Runner *)

let run_benchmarks ~quick () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instance = Instance.monotonic_clock in
  let cfg =
    if quick then Benchmark.cfg ~limit:50 ~quota:(Time.second 0.05) ~kde:None ()
    else Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let run_group group =
    let raw = Benchmark.all cfg [ instance ] group in
    let results = Analyze.all ols instance raw in
    let rows =
      Hashtbl.fold
        (fun name ols_result acc ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (est :: _) -> est
            | _ -> nan
          in
          (name, ns) :: acc)
        results []
    in
    let rows = List.sort compare rows in
    List.iter
      (fun (name, ns) ->
        let pretty =
          if Float.is_nan ns then "n/a"
          else if ns >= 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
          else if ns >= 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
          else if ns >= 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
          else Printf.sprintf "%8.0f ns" ns
        in
        Printf.printf "  %-42s %s/run\n" name pretty)
      rows;
    rows
  in
  print_endline "== Bechamel: building blocks ==";
  let micro = run_group micro_group in
  print_newline ();
  print_endline "== Bechamel: quorum-search scaling (Section VI-C) ==";
  let scaling = run_group scaling_group in
  print_newline ();
  print_endline "== Bechamel: full experiment regeneration ==";
  let experiments = run_group experiment_group in
  print_newline ();
  [ ("micro", micro); ("scaling", scaling); ("experiments", experiments) ]

(* Commission-fault smoke: one seeded Byzantine schedule per stack — an
   equivocator armed from 1ms, a slander phase, and a transient leader
   crash at t=0 so suspicion gossip gives the equivocator rows to corrupt.
   The crash must be transient: a permanent leader crash on the star stack
   leaves the spokes with divergent quorum views long enough for correct
   processes to suspect each other. The per-stack conviction counters
   (equivocation proofs found, forgeries rejected) land in BENCH_qsel.json
   next to the perf numbers, so the evidence plane's detection trajectory
   is diffable across commits. xpaxos-enum legitimately convicts nothing:
   enumeration mode has no suspicion gossip for the equivocator to fork. *)
let commission_counters ~quick () =
  let module Chaos = Qs_harness.Chaos in
  let module Fault = Qs_faults.Fault in
  let module Campaign = Qs_faults.Campaign in
  let ms = Qs_sim.Stime.of_ms in
  List.map
    (fun stack ->
      let params =
        { (Chaos.default_params stack) with
          Chaos.horizon = ms (if quick then 2_000 else 4_000);
        }
      in
      let schedule =
        [
          Fault.at ~start:Qs_sim.Stime.zero ~stop:(ms 40) (Fault.Crash 0);
          Fault.at ~start:(ms 1) (Fault.Equivocate { src = 1; scope = [ 2; 3 ] });
          Fault.at ~start:(ms 300) ~stop:(ms 1_500)
            (Fault.Slander { src = 1; victim = 2 });
        ]
      in
      let model = Fault.classify ~n:params.Chaos.n ~f:params.Chaos.f schedule in
      let o = Chaos.execute stack ~params ~seed:90210 ~model schedule in
      ( Chaos.name stack,
        o.Campaign.proofs,
        o.Campaign.forgeries,
        List.length o.Campaign.violations ))
    Chaos.all

(* The E15 scaling sweep (n = 64/256/1024): selection-core throughput,
   gossip bytes (delta vs full), and per-packet idle allocation. These are
   the machine-independent-ish numbers the bench gate keys on. *)
let scaling_points ~quick () = Qs_harness.E_scale.measure ~quick ()

(* The E16 churn sweep (n = 64/256): availability and quorum stability
   under a deterministic join/leave/eject script against membership-width
   selectors. Everything but the reconfig throughput is a code property
   the gate pins exactly. *)
let churn_points ~quick () = Qs_harness.E_churn.measure ~quick ()

let churn_json points =
  let module Json = Qs_obs.Json in
  Json.List
    (List.map
       (fun (p : Qs_harness.E_churn.point) ->
         Json.Obj
           [
             ("n", Json.Int p.n);
             ("f", Json.Int p.f);
             ("rounds", Json.Int p.rounds);
             ("joins", Json.Int p.joins);
             ("leaves", Json.Int p.leaves);
             ("ejects", Json.Int p.ejects);
             ("availability", Json.Float p.availability);
             ("quorum_changes", Json.Int p.quorum_changes);
             ("reconfig_ops_per_sec", Json.Float p.reconfig_ops_per_sec);
             ("remap_consistent", Json.Bool p.remap_consistent);
             ("departed_clean", Json.Bool p.departed_clean);
           ])
       points)

(* The E18 policy sweep (n = 9, five regions): per-policy exposure,
   availability and repair under whole-region loss, plus the cross-policy
   and sampled n=1024 intersection verdicts. Fully deterministic — every
   field is a code property the gate can pin exactly. *)
let policy_sweep () =
  let module E = Qs_harness.E_policy in
  (E.measure (), E.cross_verdicts (), E.sampled_verdict ())

let policy_json (points, cross, sampled) =
  let module Json = Qs_obs.Json in
  let module I = Qs_core.Quorum_intersection in
  Json.Obj
    [
      ( "points",
        Json.List
          (List.map
             (fun (p : Qs_harness.E_policy.point) ->
               Json.Obj
                 [
                   ("policy", Json.String p.policy);
                   ( "standing",
                     Json.List (List.map (fun i -> Json.Int i) p.standing) );
                   ("max_exposure", Json.Int p.max_exposure);
                   ("outages", Json.Int p.outages);
                   ("availability", Json.Float p.availability);
                   ("quorum_changes", Json.Int p.quorum_changes);
                   ("repairs_clean", Json.Bool p.repairs_clean);
                   ("agreement", Json.Bool p.agreement);
                   ("t3_ok", Json.Bool p.t3_ok);
                 ])
             points) );
      ( "intersection",
        Json.Obj
          [
            ("groups", Json.Int (List.length cross));
            ( "pairs",
              Json.Int (List.fold_left (fun a (v : I.verdict) -> a + v.pairs) 0 cross)
            );
            ("ok", Json.Bool (List.for_all (fun (v : I.verdict) -> v.ok) cross));
            ("sampled_pairs", Json.Int sampled.I.pairs);
            ("sampled_ok", Json.Bool sampled.I.ok);
          ] );
    ]

(* Real-runtime section: scripted component counters plus one live
   loopback-TCP cluster under nemesis loss+latency.

   The component script is fully deterministic — a fixed push sequence
   against a bounded mailbox, a fixed crafted-frame sequence against a TCP
   endpoint's dedup and corruption rejection — so the gate pins those
   counters exactly. The cluster run's safety verdicts (zero monitor
   violations, committed-prefix agreement, full workload committed) are
   code properties gated from the current run; its commit latencies are
   wall-clock and report-only. *)
module Runtime_wire = struct
  type msg = string

  let encode s = s

  let decode s = s
end

module Runtime_tcp = Qs_runtime.Tcp.Make (Runtime_wire)

let runtime_component_counters () =
  let mb = Qs_runtime.Mailbox.create ~capacity:3 in
  for i = 1 to 8 do
    ignore (Qs_runtime.Mailbox.push mb i : bool)
  done;
  let mailbox_shed = Qs_runtime.Mailbox.shed mb in
  (* One endpoint, one raw forger socket: a fixed frame sequence with two
     duplicate sequence numbers and one flipped byte. *)
  let addrs = Qs_runtime.Cluster.loopback_addrs ~n:2 () in
  let fabric = Runtime_tcp.create ~addrs () in
  Runtime_tcp.start fabric ~me:0;
  Runtime_tcp.set_handler fabric 0 (fun ~src:_ _ -> ());
  let peer = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect peer addrs.(0);
  let frame ?(kind = Qs_runtime.Frame.Data) ~seq payload =
    { Qs_runtime.Frame.kind; src = 1; incarnation = 7; seq; payload }
  in
  Qs_runtime.Frame.write peer (frame ~kind:Qs_runtime.Frame.Hello ~seq:0 "");
  List.iter
    (fun (seq, payload) -> Qs_runtime.Frame.write peer (frame ~seq payload))
    [ (1, "a"); (2, "b"); (2, "b"); (1, "a"); (3, "c") ];
  let corrupt =
    let good = Qs_runtime.Frame.encode (frame ~seq:4 "dddd") in
    let b = Bytes.of_string good in
    Bytes.set b
      (Bytes.length b - 1)
      (Char.chr (Char.code (Bytes.get b (Bytes.length b - 1)) lxor 0x55));
    Bytes.to_string b
  in
  ignore (Unix.write peer (Bytes.of_string corrupt) 0 (String.length corrupt) : int);
  let rec wait tries pred =
    if pred () || tries = 0 then ()
    else begin
      Thread.delay 0.005;
      wait (tries - 1) pred
    end
  in
  wait 400 (fun () ->
      let s = Runtime_tcp.stats fabric ~me:0 in
      s.Qs_runtime.Tcp.dup_dropped = 2 && s.Qs_runtime.Tcp.corrupt_rejected = 1);
  (* Reconnect: bring up the real peer, let its link connect, kill every
     socket from the outside, then force traffic across the healed link. *)
  (* The forged frames above already delivered 3 messages; wait for the
     4th so the kill strikes an actually-established connection. *)
  Runtime_tcp.start fabric ~me:1;
  Runtime_tcp.send fabric ~src:1 ~dst:0 "warm";
  wait 400 (fun () -> (Runtime_tcp.stats fabric ~me:0).Qs_runtime.Tcp.delivered >= 4);
  Runtime_tcp.kill_links fabric ~me:1;
  Runtime_tcp.send fabric ~src:1 ~dst:0 "after-kill";
  wait 400 (fun () -> (Runtime_tcp.stats fabric ~me:1).Qs_runtime.Tcp.reconnects >= 1);
  let s0 = Runtime_tcp.stats fabric ~me:0 in
  let s1 = Runtime_tcp.stats fabric ~me:1 in
  (try Unix.close peer with Unix.Unix_error _ -> ());
  Runtime_tcp.stop fabric ~me:0;
  Runtime_tcp.stop fabric ~me:1;
  ( mailbox_shed,
    s0.Qs_runtime.Tcp.dup_dropped,
    s0.Qs_runtime.Tcp.corrupt_rejected,
    s1.Qs_runtime.Tcp.reconnects >= 1 )

let runtime_section ~quick () =
  let module Json = Qs_obs.Json in
  let module Cluster = Qs_runtime.Cluster in
  let module Fault = Qs_faults.Fault in
  let ms = Qs_sim.Stime.of_ms in
  let mailbox_shed, dedup_dropped, corrupt_rejected, reconnected =
    runtime_component_counters ()
  in
  let requests = if quick then 3 else 5 in
  let schedule =
    [
      Fault.at ~start:(ms 0) ~stop:(ms 8_000) (Fault.Omit { src = 3; dst = 0 });
      Fault.at ~start:(ms 0) ~stop:(ms 8_000)
        (Fault.Delay { src = 3; dst = 1; by = ms 20 });
    ]
  in
  let report = Cluster.run ~seed:42L ~requests ~schedule ~n:4 ~f:1 () in
  let latencies = List.sort compare report.Cluster.commit_latency_ns in
  let percentile p =
    match latencies with
    | [] -> Json.Null
    | l ->
      let k = min (List.length l - 1) (p * List.length l / 100) in
      Json.Int (List.nth l k)
  in
  Json.Obj
    [
      ( "component",
        Json.Obj
          [
            ("mailbox_shed", Json.Int mailbox_shed);
            ("dedup_dropped", Json.Int dedup_dropped);
            ("corrupt_rejected", Json.Int corrupt_rejected);
            ("reconnected", Json.Bool reconnected);
          ] );
      ( "cluster",
        Json.Obj
          [
            ("n", Json.Int report.Cluster.n);
            ("f", Json.Int report.Cluster.f);
            ("requests", Json.Int report.Cluster.requests_submitted);
            ("committed", Json.Int report.Cluster.committed);
            ("prefix_agreement", Json.Bool report.Cluster.prefix_agreement);
            ("violations", Json.Int (List.length report.Cluster.violations));
            ("monitor_checks", Json.Int report.Cluster.monitor_checks);
            ("nemesis_unsupported", Json.Int report.Cluster.nemesis_unsupported);
            ("commit_latency_ns_p50", percentile 50);
            ("commit_latency_ns_max", percentile 100);
          ] );
    ]

(* The E17 multicore-exploration sweep: domain-sharded fuzzing throughput
   at 1/2/4/8 workers plus the exhaustive/symmetry agreement bits. The
   determinism booleans and visited-state pins are code properties the
   gate enforces; states/s and speedup are the runner's and stay
   report-only. *)
let explore_sweep ~quick () = Qs_harness.E_explore.measure ~quick ()

let explore_json (points, check) =
  let module Json = Qs_obs.Json in
  let module E = Qs_harness.E_explore in
  Json.Obj
    [
      ( "points",
        Json.List
          (List.map
             (fun (p : E.point) ->
               Json.Obj
                 [
                   ("jobs", Json.Int p.jobs);
                   ("iters", Json.Int p.iters);
                   ("visited", Json.Int p.visited);
                   ("elapsed_s", Json.Float p.elapsed_s);
                   ("states_per_sec", Json.Float p.states_per_sec);
                   ("speedup", Json.Float p.speedup);
                   ("identical_report", Json.Bool p.identical_report);
                   ("same_states", Json.Bool p.same_states);
                 ])
             points) );
      ( "exhaustive",
        Json.Obj
          [
            ("seq_visited", Json.Int check.E.seq_visited);
            ("par_visited", Json.Int check.E.par_visited);
            ("sets_agree", Json.Bool check.E.sets_agree);
            ("sym_visited", Json.Int check.E.sym_visited);
            ("sym_collapses", Json.Bool check.E.sym_collapses);
            ("sym_visited_n5", Json.Int check.E.sym_visited_n5);
            ("sym_candidates_n5", Json.Int check.E.sym_candidates_n5);
          ] );
    ]

let scaling_json points =
  let module Json = Qs_obs.Json in
  Json.List
    (List.map
       (fun (p : Qs_harness.E_scale.point) ->
         Json.Obj
           [
             ("n", Json.Int p.n);
             ("f", Json.Int p.f);
             ("merge_ops_per_sec", Json.Float p.merge_ops_per_sec);
             ("select_ops_per_sec", Json.Float p.select_ops_per_sec);
             ("full_push_bytes", Json.Int p.full_push_bytes);
             ("delta_sync_bytes", Json.Int p.delta_sync_bytes);
             ("delta_idle_bytes", Json.Int p.delta_idle_bytes);
             ("idle_alloc_per_packet", Json.Float p.idle_alloc_per_packet);
             ("lex_agrees", Json.Bool p.lex_agrees);
             ("mis_agrees", Json.Bool p.mis_agrees);
             ("peer_converged", Json.Bool p.peer_converged);
           ])
       points)

let commission_json counters =
  let module Json = Qs_obs.Json in
  Json.List
    (List.map
       (fun (stack, proofs, forgeries, violations) ->
         Json.Obj
           [
             ("stack", Json.String stack);
             ("proofs", Json.Int proofs);
             ("forgeries", Json.Int forgeries);
             ("violations", Json.Int violations);
           ])
       counters)

(* Durability section: one deterministic XPaxos run with durable stores,
   one request committed at a time. Store bytes written per commit over
   commits 1-100 and 301-400, summed over the replicas' stores: an
   incremental log keeps the two windows level, where rewriting the whole
   log at every execute makes the later one grow with the log. *)
let durability_section () =
  let module Json = Qs_obs.Json in
  let module Xcluster = Qs_xpaxos.Xcluster in
  let config =
    {
      Qs_xpaxos.Replica.n = 3;
      f = 1;
      mode = Qs_xpaxos.Replica.Quorum_selection;
      initial_timeout = Qs_sim.Stime.of_ms 25;
      timeout_strategy =
        Qs_fd.Timeout.Exponential { factor = 2.0; max = Qs_sim.Stime.of_ms 2000 };
    }
  in
  let c = Xcluster.create ~seed:1L config in
  Xcluster.attach_durability c;
  let written () =
    List.fold_left
      (fun acc p -> acc + Qs_recovery.Store.bytes_written (Xcluster.store c p))
      0 [ 0; 1; 2 ]
  in
  let commits = 400 and window = 100 in
  let at = Array.make (commits + 1) (written ()) in
  for k = 1 to commits do
    let r = Xcluster.submit c (Printf.sprintf "op-%d" k) in
    Xcluster.run c;
    if not (Xcluster.is_committed c r) then
      failwith "durability: a request did not commit";
    at.(k) <- written ()
  done;
  let per_commit last = (at.(last) - at.(last - window)) / window in
  let first = per_commit window and later = per_commit commits in
  Json.Obj
    [
      ("commits", Json.Int commits);
      ("first_bytes_per_commit", Json.Int first);
      ("later_bytes_per_commit", Json.Int later);
      ("level", Json.Bool (2 * later <= 3 * first));
    ]

(* Signing work per commit: one fault-free happy run per row of
   Stack.variants at f = 1, the protocol's smallest n and a fixed seed.
   Signs, verifies and SHA-256 compressions are the domain-local counts of
   Qs_crypto.Counters, so they are properties of the code, and the gate
   pins them. PBFT and MinBFT full vs selected show the paper's saving in
   verifies. *)
let crypto_section () =
  let module Json = Qs_obs.Json in
  let module Stack = Qs_harness.Stack in
  Json.List
    (List.map
       (fun (names, (module S : Stack.STACK), variant) ->
         let f = 1 in
         let n = S.default_n ~f in
         let work, commits =
           Stack.signing_per_request (module S.C) (S.create ~n ~f ~seed:1L variant)
         in
         let per x = Json.Float (float_of_int x /. float_of_int commits) in
         Json.Obj
           [
             ("variant", Json.String (List.hd names));
             ("n", Json.Int n);
             ("commits", Json.Int commits);
             ("signs_per_commit", per work.Qs_crypto.Counters.signs);
             ("verifies_per_commit", per work.Qs_crypto.Counters.verifies);
             ("compressions_per_commit", per work.Qs_crypto.Counters.compressions);
           ])
       Stack.variants)

(* The sections Qs_obs.Bench_gate gates, in summary order. They run before
   the metrics reset that precedes the tables: the commission smoke's
   Chaos.execute resets the default registry itself, so running it later
   would clobber the counters the experiments record for the snapshot. *)
let gated_sections ~quick () =
  let commission = commission_json (commission_counters ~quick ()) in
  let scaling = scaling_json (scaling_points ~quick ()) in
  let churn = churn_json (churn_points ~quick ()) in
  let explore = explore_json (explore_sweep ~quick ()) in
  let policy = policy_json (policy_sweep ()) in
  let runtime = runtime_section ~quick () in
  let durability = durability_section () in
  let crypto = crypto_section () in
  [
    ("commission", commission);
    ("scaling", scaling);
    ("churn", churn);
    ("explore", explore);
    ("policy", policy);
    ("runtime", runtime);
    ("durability", durability);
    ("crypto", crypto);
  ]

(* A BENCH_*.json summary: per-benchmark ns/run, the experiment verdict
   tally, the gated sections, and the metrics the protocol layers recorded
   while the tables were regenerated. One file per run; diff it across
   commits to track the perf trajectory. *)
let write_json_summary ~path ~quick ~experiments_ok ~sections ~bench_rows =
  let module Json = Qs_obs.Json in
  let result_json group (name, ns) =
    Json.Obj
      [
        ("group", Json.String group);
        ("name", Json.String name);
        ("ns_per_run", if Float.is_nan ns then Json.Null else Json.Float ns);
      ]
  in
  let results =
    List.concat_map
      (fun (group, rows) -> List.map (result_json group) rows)
      bench_rows
  in
  let doc =
    Json.Obj
      ([
         ("schema", Json.String "qsel-bench/1");
         ("quick", Json.Bool quick);
         ( "experiments_ok",
           match experiments_ok with None -> Json.Null | Some ok -> Json.Bool ok );
       ]
      @ sections
      @ [
          ("results", Json.List results);
          ("metrics", Qs_obs.Metrics.to_json (Qs_obs.Metrics.snapshot ()));
        ])
  in
  let oc = open_out path in
  output_string oc (Json.render_pretty doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" path

let () =
  let args = Array.to_list Sys.argv in
  let flag f = List.mem f args in
  let quick = flag "--quick" in
  let tables_only = flag "--tables" in
  let micro_only = flag "--micro" in
  let json_path =
    List.find_map
      (fun a ->
        if a = "--json" then Some "BENCH_qsel.json"
        else if String.length a > 7 && String.sub a 0 7 = "--json=" then
          Some (String.sub a 7 (String.length a - 7))
        else None)
      args
  in
  let summary = Option.map (fun path -> (path, gated_sections ~quick ())) json_path in
  Qs_obs.Metrics.reset ();
  let experiments_ok =
    if micro_only then None else Some (Experiments.run_and_print_all ~quick ())
  in
  let bench_rows = if tables_only then [] else run_benchmarks ~quick () in
  Option.iter
    (fun (path, sections) ->
      write_json_summary ~path ~quick ~experiments_ok ~sections ~bench_rows)
    summary;
  if experiments_ok = Some false then exit 1
