(* Scaling-core properties: the bitset-backed matrix rows, the delta-state
   gossip engine, the incremental suspect view, and the bench-regression
   gate. *)

module Matrix = Qs_core.Suspicion_matrix
module Delta = Qs_core.Delta
module View = Qs_core.Suspect_view
module Indep = Qs_graph.Indep
module Json = Qs_obs.Json
module Gate = Qs_obs.Bench_gate
module Prng = Qs_stdx.Prng

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Sparse (bitset) rows vs dense rows: the two merge entry points are the
   same join. *)

let random_matrix rng n =
  let m = Matrix.create n in
  for _ = 1 to Prng.int_in rng 0 10 do
    let i = Prng.int rng n and j = Prng.int rng n in
    if i <> j then Matrix.record m ~suspector:i ~suspect:j ~epoch:(Prng.int_in rng 1 5)
  done;
  m

let random_dense_row rng n ~owner =
  Array.init n (fun k -> if k = owner then 0 else Prng.int_in rng 0 4)

let row_law name law =
  QCheck.Test.make ~name ~count:200
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Prng.of_int seed in
      let n = Prng.int_in rng 2 6 in
      let owner = Prng.int rng n in
      law rng n owner (random_matrix rng n))

let prop_sparse_row_roundtrip =
  row_law "sparse_row/merge_cells reproduces the row" (fun _rng n owner m ->
      let fresh = Matrix.create n in
      ignore (Matrix.merge_cells fresh ~owner (Matrix.sparse_row m owner));
      Matrix.row fresh owner = Matrix.row m owner)

let prop_merge_cells_matches_merge_row =
  row_law "merge_cells is merge_row on the nonzero cells" (fun rng n owner m ->
      let dense = random_dense_row rng n ~owner in
      let sparse =
        Array.of_list
          (List.filter_map
             (fun k -> if dense.(k) > 0 then Some (k, dense.(k)) else None)
             (List.init n Fun.id))
      in
      let via_row = Matrix.copy m and via_cells = Matrix.copy m in
      let c1 = Matrix.merge_row via_row ~owner dense in
      let c2 = Matrix.merge_cells via_cells ~owner sparse in
      c1 = c2 && Matrix.equal via_row via_cells)

let prop_row_version_tracks_change =
  row_law "row_version bumps iff the merge changed the row" (fun rng n owner m ->
      let dense = random_dense_row rng n ~owner in
      let v0 = Matrix.row_version m owner in
      let changed = Matrix.merge_row m ~owner dense in
      let v1 = Matrix.row_version m owner in
      if changed then v1 > v0 else v1 = v0)

let prop_iter_nonzero_matches_dense =
  row_law "iter_nonzero visits exactly the nonzero cells" (fun _rng n _owner m ->
      let seen = Hashtbl.create 16 in
      Matrix.iter_nonzero m (fun ~suspector ~suspect ~epoch ->
          Hashtbl.replace seen (suspector, suspect) epoch);
      let ok = ref true in
      for l = 0 to n - 1 do
        for k = 0 to n - 1 do
          let cell = Matrix.get m ~suspector:l ~suspect:k in
          let visited = Hashtbl.find_opt seen (l, k) in
          if cell = 0 then ok := !ok && visited = None
          else ok := !ok && visited = Some cell
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Delta gossip vs full state: two nodes recording independently and
   gossiping deltas over a network that drops, duplicates and reorders
   must still converge to the full-state join once the link behaves. *)

type wire =
  | Pkt of int * Delta.packet  (* destination node, packet *)
  | Ack of int * int * Delta.ack  (* destination node, acking peer, ack *)

let prop_delta_convergence =
  QCheck.Test.make ~name:"delta gossip converges under drop/dup/reorder"
    ~count:150
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Prng.of_int seed in
      let n = Prng.int_in rng 3 6 in
      let a = Matrix.create n and b = Matrix.create n in
      let ea = Delta.create ~me:0 a and eb = Delta.create ~me:1 b in
      let engine = function 0 -> ea | _ -> eb in
      let in_flight = ref [] in
      let push w = in_flight := w :: !in_flight in
      let deliver w =
        match w with
        | Pkt (dst, p) ->
          let _changed, ack = Delta.apply (engine dst) p in
          push (Ack (1 - dst, dst, ack))
        | Ack (dst, peer, ack) -> Delta.apply_ack (engine dst) ~peer ack
      in
      for _ = 1 to Prng.int_in rng 10 60 do
        match Prng.int rng 4 with
        | 0 ->
          (* record a fresh suspicion on one side *)
          let m = if Prng.int rng 2 = 0 then a else b in
          let i = Prng.int rng n and j = Prng.int rng n in
          if i <> j then
            Matrix.record m ~suspector:i ~suspect:j ~epoch:(Prng.int_in rng 1 5)
        | 1 ->
          (* gossip tick on one side *)
          let src = Prng.int rng 2 in
          (match Delta.make_packet (engine src) ~peer:(1 - src) with
           | None -> ()
           | Some p -> push (Pkt (1 - src, p)))
        | _ -> (
          (* deliver a random in-flight message: reorder by picking
             anywhere in the queue; sometimes drop it, sometimes deliver
             it twice *)
          match !in_flight with
          | [] -> ()
          | q ->
            let i = Prng.int rng (List.length q) in
            let w = List.nth q i in
            in_flight := List.filteri (fun j _ -> j <> i) q;
            (match Prng.int rng 4 with
             | 0 -> () (* dropped *)
             | 1 ->
               deliver w;
               deliver w
             | _ -> deliver w))
      done;
      (* The link heals: reliable in-order rounds until both engines have
         nothing left to ship. *)
      in_flight := [];
      let quiet = ref false in
      let rounds = ref 0 in
      while (not !quiet) && !rounds < 10 do
        incr rounds;
        quiet := true;
        List.iter
          (fun src ->
            match Delta.make_packet (engine src) ~peer:(1 - src) with
            | None -> ()
            | Some p ->
              quiet := false;
              let _changed, ack = Delta.apply (engine (1 - src)) p in
              Delta.apply_ack (engine src) ~peer:(1 - src) ack)
          [ 0; 1 ]
      done;
      let union = Matrix.copy a in
      ignore (Matrix.merge union b);
      !quiet && Matrix.equal a b && Matrix.equal a union)

let prop_idle_packet_is_none =
  QCheck.Test.make ~name:"converged peers exchange no further packets" ~count:100
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Prng.of_int seed in
      let n = Prng.int_in rng 2 6 in
      let a = random_matrix rng n in
      let b = Matrix.create n in
      let ea = Delta.create ~me:0 a in
      let eb = Delta.create ~me:1 b in
      (match Delta.make_packet ea ~peer:1 with
       | None -> ()
       | Some p ->
         let _changed, ack = Delta.apply eb p in
         Delta.apply_ack ea ~peer:1 ack);
      Delta.make_packet ea ~peer:1 = None)

(* ------------------------------------------------------------------ *)
(* Incremental suspect view vs the from-scratch pipeline, under random
   merge sequences, epoch changes and a blit restore. *)

let scratch_agrees m view ~epoch =
  View.sync view ~epoch;
  let g = Matrix.suspect_graph m ~epoch in
  let n = Matrix.n m in
  View.mis_total view = Indep.max_independent_set_size g
  && List.for_all
       (fun q ->
         View.lex_first view q = Indep.lex_first_independent_set g q
         && View.feasible view q = Indep.exists_independent_set g q)
       (List.init (n + 1) Fun.id)

let prop_view_matches_scratch =
  QCheck.Test.make ~name:"incremental view = from-scratch on random merges"
    ~count:150
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Prng.of_int seed in
      let n = Prng.int_in rng 2 7 in
      let m = Matrix.create n in
      let view = View.create m ~epoch:1 in
      let epoch = ref 1 in
      let ok = ref true in
      let snapshot = ref None in
      for _ = 1 to Prng.int_in rng 5 25 do
        (match Prng.int rng 6 with
         | 0 -> epoch := !epoch + 1 (* epoch advance: view must rebuild *)
         | 1 -> snapshot := Some (Matrix.copy m)
         | 2 -> (
           (* restore an older snapshot: cells go DOWN, the watcher's
              on_reset must mark the view stale *)
           match !snapshot with
           | Some s -> Matrix.blit ~src:s ~dst:m
           | None -> ())
         | _ ->
           let other = random_matrix rng n in
           ignore (Matrix.merge m other));
        ok := !ok && scratch_agrees m view ~epoch:!epoch
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Bench gate: a healthy run passes against its own derived baseline, and
   every gated regression class fails — in particular an injected 2×
   slowdown at the largest n. *)

let point ~n ?(full = 4096) ?(sync = 65) ?(idle = 0) ?(alloc = 0.0)
    ?(agrees = true) ~select () =
  Json.Obj
    [
      ("n", Json.Int n);
      ("f", Json.Int 4);
      ("merge_ops_per_sec", Json.Float (select *. 10.0));
      ("select_ops_per_sec", Json.Float select);
      ("full_push_bytes", Json.Int full);
      ("delta_sync_bytes", Json.Int sync);
      ("delta_idle_bytes", Json.Int idle);
      ("idle_alloc_per_packet", Json.Float alloc);
      ("lex_agrees", Json.Bool agrees);
      ("mis_agrees", Json.Bool agrees);
      ("peer_converged", Json.Bool agrees);
    ]

let churn_point ?(availability = 1.0) ?(consistent = true) () =
  Json.Obj
    [
      ("n", Json.Int 64);
      ("f", Json.Int 4);
      ("rounds", Json.Int 12);
      ("joins", Json.Int 4);
      ("leaves", Json.Int 7);
      ("ejects", Json.Int 1);
      ("availability", Json.Float availability);
      ("quorum_changes", Json.Int 12);
      ("reconfig_ops_per_sec", Json.Float 17_000.0);
      ("remap_consistent", Json.Bool consistent);
      ("departed_clean", Json.Bool consistent);
    ]

let policy_point ~policy ?(max_exposure = 1) ?(outages = 0)
    ?(availability = 1.0) ?(quorum_changes = 5) ?(clean = true) () =
  Json.Obj
    [
      ("policy", Json.String policy);
      ("standing", Json.String "{0,2,4,6,8}");
      ("max_exposure", Json.Int max_exposure);
      ("outages", Json.Int outages);
      ("availability", Json.Float availability);
      ("quorum_changes", Json.Int quorum_changes);
      ("repairs_clean", Json.Bool clean);
      ("agreement", Json.Bool clean);
      ("t3_ok", Json.Bool clean);
    ]

(* Mirrors the E18 shape: lex loses quorums to region loss, the cap-1
   policy never does. *)
let policy_points ?(diverse_availability = 1.0) ?(diverse_changes = 5)
    ?(clean = true) () =
  [
    policy_point ~policy:"lex" ~max_exposure:2 ~outages:2 ~availability:0.6
      ~quorum_changes:3 ~clean ();
    policy_point ~policy:"lottery" ~max_exposure:2 ~outages:1 ~availability:0.8
      ~quorum_changes:4 ~clean ();
    policy_point ~policy:"diverse" ~availability:diverse_availability
      ~quorum_changes:diverse_changes ~clean ();
  ]

let policy_section ?points ?(ok = true) ?(pairs = 8) ?(sampled_ok = true)
    ?(sampled_pairs = 10) () =
  let points = match points with Some p -> p | None -> policy_points () in
  Json.Obj
    [
      ("points", Json.List points);
      ( "intersection",
        Json.Obj
          [
            ("groups", Json.Int 6);
            ("pairs", Json.Int pairs);
            ("ok", Json.Bool ok);
            ("sampled_pairs", Json.Int sampled_pairs);
            ("sampled_ok", Json.Bool sampled_ok);
          ] );
    ]

(* Mirrors the E17 shape: every worker count reproduces the jobs=1 report;
   speedup is the runner's. *)
let explore_section ?(jobs = [ 1; 2; 4; 8 ]) ?(identical = true) ?(sym_visited = 272)
    ?(sym_candidates_n5 = 1574) () =
  Json.Obj
    [
      ( "points",
        Json.List
          (List.map
             (fun j ->
               Json.Obj
                 [
                   ("jobs", Json.Int j);
                   ("speedup", Json.Float 1.0);
                   ("identical_report", Json.Bool identical);
                   ("same_states", Json.Bool true);
                 ])
             jobs) );
      ( "exhaustive",
        Json.Obj
          [
            ("seq_visited", Json.Int 509);
            ("par_visited", Json.Int 509);
            ("sets_agree", Json.Bool true);
            ("sym_visited", Json.Int sym_visited);
            ("sym_collapses", Json.Bool true);
            ("sym_visited_n5", Json.Int 335);
            ("sym_candidates_n5", Json.Int sym_candidates_n5);
          ] );
    ]

let runtime_section ?(corrupt_rejected = 1) ?(committed = 3) ?(violations = 0) () =
  Json.Obj
    [
      ( "component",
        Json.Obj
          [
            ("mailbox_shed", Json.Int 5);
            ("dedup_dropped", Json.Int 2);
            ("corrupt_rejected", Json.Int corrupt_rejected);
            ("reconnected", Json.Bool true);
          ] );
      ( "cluster",
        Json.Obj
          [
            ("requests", Json.Int 3);
            ("committed", Json.Int committed);
            ("prefix_agreement", Json.Bool true);
            ("violations", Json.Int violations);
            ("nemesis_unsupported", Json.Int 0);
            ("commit_latency_ns_p50", Json.Int 2_000_000);
          ] );
    ]

let durability_section ?(first = 1011) ?(later = 1282) () =
  Json.Obj
    [
      ("commits", Json.Int 400);
      ("first_bytes_per_commit", Json.Int first);
      ("later_bytes_per_commit", Json.Int later);
      ("level", Json.Bool (2 * later <= 3 * first));
    ]

(* One happy-run row of the crypto section, as bench/main.ml writes it. *)
let crypto_section ?(compressions = 26.0) () =
  Json.List
    [
      Json.Obj
        [
          ("variant", Json.String "xpaxos");
          ("n", Json.Int 3);
          ("commits", Json.Int 5);
          ("signs_per_commit", Json.Float 4.0);
          ("verifies_per_commit", Json.Float 6.0);
          ("compressions_per_commit", Json.Float compressions);
        ];
    ]

let bench ?(scaling = []) ?(churn = [ churn_point () ])
    ?(explore = explore_section ()) ?(policy = policy_section ())
    ?(runtime = runtime_section ()) ?(durability = durability_section ())
    ?(crypto = crypto_section ()) () =
  Json.Obj
    [
      ("schema", Json.String "qsel-bench/1");
      ("quick", Json.Bool true);
      ("experiments_ok", Json.Bool true);
      ( "commission",
        Json.List
          [
            Json.Obj
              [
                ("stack", Json.String "pbft");
                ("proofs", Json.Int 7);
                ("forgeries", Json.Int 174);
                ("violations", Json.Int 0);
              ];
          ] );
      ("scaling", Json.List scaling);
      ("churn", Json.List churn);
      ("explore", explore);
      ("policy", policy);
      ("runtime", runtime);
      ("durability", durability);
      ("crypto", crypto);
      ("results", Json.List []);
    ]

let scaling_healthy () =
  [ point ~n:64 ~select:400_000.0 (); point ~n:1024 ~select:10_000.0 () ]

let healthy () = bench ~scaling:(scaling_healthy ()) ()

let gate current baseline = Gate.passed (Gate.check ~current ~baseline)

let test_gate_passes_healthy () =
  let b = Gate.derive_baseline (healthy ()) in
  check_bool "healthy run passes" true (gate (healthy ()) b)

let test_gate_fails_2x_slowdown () =
  let b = Gate.derive_baseline (healthy ()) in
  (* 2× slower selection at n=1024: absolute numbers are machine-relative,
     but the 64/1024 ratio doubles — past the 1.75× cap. *)
  let slowed =
    bench
      ~scaling:
        [ point ~n:64 ~select:400_000.0 (); point ~n:1024 ~select:5_000.0 () ]
      ()
  in
  check_bool "2x slowdown at n=1024 fails" false (gate slowed b);
  (* A uniform 2× slowdown (slower machine) leaves the ratio alone and
     passes: the gate keys on code properties, not the runner. *)
  let slower_machine =
    bench
      ~scaling:
        [ point ~n:64 ~select:200_000.0 (); point ~n:1024 ~select:5_000.0 () ]
      ()
  in
  check_bool "uniformly slower machine still passes" true (gate slower_machine b)

let test_gate_fails_byte_regression () =
  let b = Gate.derive_baseline (healthy ()) in
  let bloated =
    bench
      ~scaling:
        [
          point ~n:64 ~select:400_000.0 ();
          point ~n:1024 ~sync:130 ~select:10_000.0 ();
        ]
      ()
  in
  check_bool "2x delta bytes fails" false (gate bloated b)

let test_gate_fails_idle_regressions () =
  let b = Gate.derive_baseline (healthy ()) in
  let chatty =
    bench
      ~scaling:
        [
          point ~n:64 ~select:400_000.0 ();
          point ~n:1024 ~idle:65 ~select:10_000.0 ();
        ]
      ()
  in
  check_bool "nonzero idle tick fails" false (gate chatty b);
  let allocating =
    bench
      ~scaling:
        [
          point ~n:64 ~select:400_000.0 ();
          point ~n:1024 ~alloc:8192.0 ~select:10_000.0 ();
        ]
      ()
  in
  check_bool "per-packet row copies fail" false (gate allocating b)

let test_gate_fails_disagreement () =
  let b = Gate.derive_baseline (healthy ()) in
  let wrong =
    bench
      ~scaling:
        [
          point ~n:64 ~select:400_000.0 ();
          point ~n:1024 ~agrees:false ~select:10_000.0 ();
        ]
      ()
  in
  check_bool "incremental/scratch disagreement fails" false (gate wrong b)

let test_gate_fails_churn_regression () =
  let b = Gate.derive_baseline (healthy ()) in
  let unavailable =
    bench ~scaling:(scaling_healthy ())
      ~churn:[ churn_point ~availability:0.9 () ]
      ()
  in
  check_bool "quorum unavailability after a change fails" false
    (gate unavailable b);
  let inconsistent =
    bench ~scaling:(scaling_healthy ())
      ~churn:[ churn_point ~consistent:false () ]
      ()
  in
  check_bool "remap/rebuild divergence fails" false (gate inconsistent b)

let test_gate_policy_opt_in () =
  (* A baseline derived from a run carrying the policy section round-trips
     and passes. *)
  check_bool "derived policy baseline passes" true
    (gate (healthy ()) (Gate.derive_baseline (healthy ())))

let test_gate_fails_policy_drift () =
  let b = Gate.derive_baseline (healthy ()) in
  let degraded =
    bench ~scaling:(scaling_healthy ())
      ~policy:
        (policy_section ~points:(policy_points ~diverse_availability:0.8 ()) ())
      ()
  in
  check_bool "diverse availability drop fails" false (gate degraded b);
  let churny =
    bench ~scaling:(scaling_healthy ())
      ~policy:(policy_section ~points:(policy_points ~diverse_changes:9 ()) ())
      ()
  in
  check_bool "quorum-change count drift fails" false (gate churny b);
  let dirty =
    bench ~scaling:(scaling_healthy ())
      ~policy:(policy_section ~points:(policy_points ~clean:false ()) ())
      ()
  in
  check_bool "repair/agreement/t3 flags fail" false (gate dirty b);
  let missing =
    bench ~scaling:(scaling_healthy ())
      ~policy:
        (policy_section ~points:[ policy_point ~policy:"lex" ~max_exposure:2
                                    ~outages:2 ~availability:0.6
                                    ~quorum_changes:3 () ] ())
      ()
  in
  check_bool "missing policy point fails" false (gate missing b)

let test_gate_fails_policy_intersection () =
  let b = Gate.derive_baseline (healthy ()) in
  (* The intersection verdicts gate from the current run alone: a failed
     group, a vacuous sweep, or a broken sampled point all reject even
     though none of them is pinned in the baseline. *)
  let broken =
    bench ~scaling:(scaling_healthy ()) ~policy:(policy_section ~ok:false ()) ()
  in
  check_bool "failed cross-policy group fails" false (gate broken b);
  let vacuous =
    bench ~scaling:(scaling_healthy ()) ~policy:(policy_section ~pairs:0 ()) ()
  in
  check_bool "zero compared pairs fails" false (gate vacuous b);
  let sampled =
    bench ~scaling:(scaling_healthy ())
      ~policy:(policy_section ~sampled_ok:false ())
      ()
  in
  check_bool "sampled n=1024 failure fails" false (gate sampled b)

let test_gate_fails_explore_regression () =
  let b = Gate.derive_baseline (healthy ()) in
  let diverged =
    bench ~scaling:(scaling_healthy ()) ~explore:(explore_section ~identical:false ()) ()
  in
  check_bool "report differing from jobs=1 fails" false (gate diverged b);
  let drifted =
    bench ~scaling:(scaling_healthy ()) ~explore:(explore_section ~sym_visited:335 ()) ()
  in
  check_bool "symmetry-reduced state count drift fails" false (gate drifted b);
  let widened =
    bench ~scaling:(scaling_healthy ())
      ~explore:(explore_section ~sym_candidates_n5:1575 ())
      ()
  in
  check_bool "symmetry candidate count drift fails" false (gate widened b);
  let missing =
    bench ~scaling:(scaling_healthy ()) ~explore:(explore_section ~jobs:[ 1; 2; 4 ] ()) ()
  in
  check_bool "missing jobs point fails" false (gate missing b)

let test_gate_fails_runtime_regression () =
  let b = Gate.derive_baseline (healthy ()) in
  let lossy =
    bench ~scaling:(scaling_healthy ()) ~runtime:(runtime_section ~committed:2 ()) ()
  in
  check_bool "uncommitted request fails" false (gate lossy b);
  let drifted =
    bench ~scaling:(scaling_healthy ())
      ~runtime:(runtime_section ~corrupt_rejected:0 ())
      ()
  in
  check_bool "corrupt_rejected drift fails" false (gate drifted b);
  let violating =
    bench ~scaling:(scaling_healthy ()) ~runtime:(runtime_section ~violations:1 ()) ()
  in
  check_bool "monitor violation fails" false (gate violating b)

let test_gate_fails_durability_regression () =
  let b = Gate.derive_baseline (healthy ()) in
  let heavier =
    bench ~scaling:(scaling_healthy ()) ~durability:(durability_section ~later:1300 ()) ()
  in
  check_bool "more bytes per commit fails" false (gate heavier b);
  let growing = durability_section ~later:2000 () in
  check_bool "a later window past 1.5x fails on its own" false
    (gate
       (bench ~scaling:(scaling_healthy ()) ~durability:growing ())
       (Gate.derive_baseline (bench ~scaling:(scaling_healthy ()) ~durability:growing ())))

(* Compressions per commit are pinned both ways: more is a regression,
   and fewer is a change the baseline must be re-seeded to record. *)
let test_gate_fails_crypto_drift () =
  let b = Gate.derive_baseline (healthy ()) in
  List.iter
    (fun (label, compressions) ->
      let crypto = crypto_section ~compressions () in
      check_bool label false (gate (bench ~scaling:(scaling_healthy ()) ~crypto ()) b))
    [ ("more compressions per commit fail", 46.0); ("fewer fail until re-seeded", 20.0) ]

let test_gate_missing_field_malformed () =
  (* A gated field absent from the current run is an error, never a pass. *)
  let b = Gate.derive_baseline (healthy ()) in
  let without_reconnected =
    match runtime_section () with
    | Json.Obj [ ("component", Json.Obj comp); cluster ] ->
      Json.Obj [ ("component", Json.Obj (List.remove_assoc "reconnected" comp)); cluster ]
    | _ -> assert false
  in
  match
    Gate.check
      ~current:(bench ~scaling:(scaling_healthy ()) ~runtime:without_reconnected ())
      ~baseline:b
  with
  | _ -> Alcotest.fail "missing field passed"
  | exception Gate.Malformed _ -> ()

let test_gate_update_baseline_ratchet () =
  (* The escape hatch: deriving a fresh baseline from the regressed run
     makes the gate pass again — that is what --update-baseline commits. *)
  let slowed =
    bench
      ~scaling:
        [ point ~n:64 ~select:400_000.0 (); point ~n:1024 ~select:5_000.0 () ]
      ()
  in
  check_bool "old baseline rejects" false
    (gate slowed (Gate.derive_baseline (healthy ())));
  check_bool "re-derived baseline accepts" true
    (gate slowed (Gate.derive_baseline slowed))

let test_gate_real_baseline_format () =
  (* The committed baseline must stay parseable and structurally what the
     gate expects: a full check against the real file, using a current
     document derived back from it would require a bench run; instead just
     assert the schema and tolerances decode. *)
  (* Under [dune runtest] the cwd is [_build/default/test] (the declared
     dep materializes the file one level up); under [dune exec] from the
     repo root it is the source tree. *)
  let path =
    List.find Sys.file_exists
      [ "../bench/baseline.json"; "bench/baseline.json" ]
  in
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  match Json.parse s with
  | Error e -> Alcotest.failf "bench/baseline.json does not parse: %s" e
  | Ok j ->
    check_bool "baseline schema" true
      (Json.member "schema" j = Some (Json.String "qsel-baseline/1"));
    check_bool "has tolerances" true (Json.member "tolerances" j <> None);
    check_bool "has scaling" true (Json.member "scaling" j <> None)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_sparse_row_roundtrip;
      prop_merge_cells_matches_merge_row;
      prop_row_version_tracks_change;
      prop_iter_nonzero_matches_dense;
      prop_delta_convergence;
      prop_idle_packet_is_none;
      prop_view_matches_scratch;
    ]

let () =
  Alcotest.run "scale"
    [
      ("properties", qsuite);
      ( "bench-gate",
        [
          Alcotest.test_case "healthy passes" `Quick test_gate_passes_healthy;
          Alcotest.test_case "2x slowdown fails" `Quick test_gate_fails_2x_slowdown;
          Alcotest.test_case "byte regression fails" `Quick
            test_gate_fails_byte_regression;
          Alcotest.test_case "idle regressions fail" `Quick
            test_gate_fails_idle_regressions;
          Alcotest.test_case "disagreement fails" `Quick
            test_gate_fails_disagreement;
          Alcotest.test_case "churn regression fails" `Quick
            test_gate_fails_churn_regression;
          Alcotest.test_case "policy section opt-in" `Quick
            test_gate_policy_opt_in;
          Alcotest.test_case "policy drift fails" `Quick
            test_gate_fails_policy_drift;
          Alcotest.test_case "policy intersection fails" `Quick
            test_gate_fails_policy_intersection;
          Alcotest.test_case "explore regression fails" `Quick
            test_gate_fails_explore_regression;
          Alcotest.test_case "runtime regression fails" `Quick
            test_gate_fails_runtime_regression;
          Alcotest.test_case "durability regression fails" `Quick
            test_gate_fails_durability_regression;
          Alcotest.test_case "crypto drift fails" `Quick test_gate_fails_crypto_drift;
          Alcotest.test_case "missing gated field is malformed" `Quick
            test_gate_missing_field_malformed;
          Alcotest.test_case "update-baseline ratchet" `Quick
            test_gate_update_baseline_ratchet;
          Alcotest.test_case "committed baseline well-formed" `Quick
            test_gate_real_baseline_format;
        ] );
    ]
