(* Tests of the benchmark's own statistics, and of the traced run leaving
   sim-failover's outputs unchanged. *)

open Perfbench

let check_int = Alcotest.(check int)

let check_float = Alcotest.(check (float 1e-9))

let ramp n = Stats.sorted (List.init n (fun i -> float (i + 1)))

(* ------------------------------------------------------------------ *)
(* The ten-samples-beyond rule *)

let test_tail_rule () =
  let pick n = Option.map fst (Stats.tail (ramp n)) in
  Alcotest.(check (option int)) "1000 samples: p99" (Some 990) (pick 1000);
  Alcotest.(check (option int)) "999 samples: p95" (Some 950) (pick 999);
  Alcotest.(check (option int)) "100 samples: p90" (Some 900) (pick 100);
  Alcotest.(check (option int)) "20 samples: p50" (Some 500) (pick 20);
  Alcotest.(check (option int)) "19 samples: none" None (pick 19);
  Alcotest.(check (option int)) "100000 samples: capped at p99" (Some 990) (pick 100_000)

let test_tail_leaves_ten_beyond () =
  List.iter
    (fun n ->
      match Stats.tail (ramp n) with
      | None -> ()
      | Some (_, x) ->
        let beyond = n - int_of_float x in
        Alcotest.(check bool) (Printf.sprintf "n=%d: %d beyond" n beyond) true (beyond >= 10))
    [ 20; 57; 100; 999; 1000; 1001; 4321 ]

let test_percentile_nearest_rank () =
  check_float "p99 of 1..1000" 990. (Stats.percentile (ramp 1000) 990);
  check_float "p50 of 1..3" 2. (Stats.percentile (ramp 3) 500);
  check_float "p50 of 1..4" 2. (Stats.percentile (ramp 4) 500)

let test_fast_quartile () =
  let xs = [ 5.; 1.; 9.; 3.; 7.; 2.; 8.; 4. ] in
  check_float "time: lower quartile" 2. (Stats.fast_quartile ~lower_is_better:true xs);
  check_float "rate: upper quartile" 7. (Stats.fast_quartile ~lower_is_better:false xs)

let test_median () =
  check_float "odd" 3. (Stats.median [ 5.; 1.; 3. ]);
  check_float "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ])

(* ------------------------------------------------------------------ *)
(* Reported sample counts *)

let test_sample_counts () =
  let ms = Metric.latency ~p50:"a_p50" ~tail:"a_p99" "ms" [ List.init 1234 float ] in
  Alcotest.(check (list string)) "both reported" [ "a_p50"; "a_p99" ]
    (List.map (fun m -> m.Metric.name) ms);
  List.iter (fun m -> check_int m.Metric.name 1234 m.Metric.samples) ms;
  let few = Metric.latency ~p50:"a_p50" ~tail:"a_p99" "ms" [ List.init 15 float ] in
  check_int "no tail below 20 samples" 1 (List.length few);
  let sel = Metric.select [ ("a_p50", "ms"); ("missing", "count") ] ms in
  check_int "missing metric has no samples" 0 (List.nth sel 1).Metric.samples

let test_tail_per_trial () =
  (* Three trials of 1000 samples each qualify for p99 on their own: the
     reported tail is the median of the three trial tails, not the pooled
     tail that one slow trial would set. *)
  let trial offset = List.init 1000 (fun i -> offset +. float (i + 1)) in
  let ms = Metric.latency ~p50:"a_p50" ~tail:"a_p99" "ms" [ trial 0.; trial 0.; trial 5000. ] in
  check_float "median of trial p99s" 990. (List.nth ms 1).Metric.value;
  check_int "samples count every trial" 3000 (List.nth ms 1).Metric.samples;
  (* One trial too small for p99: the tail pools. *)
  let ms =
    Metric.latency ~p50:"a_p50" ~tail:"a_p99" "ms"
      [ trial 0.; List.init 10 (fun i -> 5000. +. float i) ]
  in
  check_float "pooled tail" 1000. (List.nth ms 1).Metric.value

(* ------------------------------------------------------------------ *)
(* Outage extraction on a hand-built commit timeline *)

let test_outages () =
  let c submitted committed = { Stats.submitted; committed } in
  let commits =
    [
      c 90. 95.;
      (* in flight at the first onset: commits after it, ends nothing *)
      c 98. 101.;
      c 100. 180.;
      c 120. 170.;
      c 200. 203.;
      (* second episode: the first commit of a later request *)
      c 310. 360.;
      c 305. 390.;
    ]
  in
  let episodes =
    [
      { Stats.onset = 100. };
      { Stats.onset = 300. };
      { Stats.onset = 500. };
    ]
  in
  Alcotest.(check (list (option (float 1e-9))))
    "onset to first commit of a request submitted after it"
    [ Some 70.; Some 60.; None ]
    (Stats.outages ~episodes ~commits)

let test_prefix_consistent () =
  Alcotest.(check bool) "prefixes agree" true
    (Stats.prefix_consistent [ [ 1; 2; 3 ]; [ 1; 2 ]; []; [ 1; 2; 3; 4 ] ]);
  Alcotest.(check bool) "divergence found" false
    (Stats.prefix_consistent [ [ 1; 2; 3 ]; [ 1; 3 ] ])

(* ------------------------------------------------------------------ *)
(* Tracing leaves sim-failover unchanged *)

let test_traced_sim_identical () =
  let run traced =
    Spans.reset ();
    Spans.on := traced;
    let t = Sim_failover.trial ~requests:250 ~kind:Sim_failover.Amnesia ~seed:11L () in
    Spans.on := false;
    t
  in
  let plain = run false in
  let traced = run true in
  Alcotest.(check bool) "spans were recorded" true (Spans.count_of_span "xpaxos.handle" > 0);
  Alcotest.(check (list (list (pair int int))))
    "committed histories" plain.Sim_failover.histories traced.Sim_failover.histories;
  Alcotest.(check (list (float 0.)))
    "virtual latencies" plain.Sim_failover.latencies_ms traced.Sim_failover.latencies_ms;
  Alcotest.(check (list (option (float 0.))))
    "outages" plain.Sim_failover.outages_ms traced.Sim_failover.outages_ms;
  Alcotest.(check (list (pair string (float 0.))))
    "per-trial counters" plain.Sim_failover.counts traced.Sim_failover.counts;
  Alcotest.(check bool) "commits happened" true (plain.Sim_failover.committed > 200);
  Alcotest.(check int) "one episode" 1 (List.length plain.Sim_failover.episodes)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "ten-beyond rule picks the percentile" `Quick test_tail_rule;
          Alcotest.test_case "ten-beyond rule leaves ten beyond" `Quick test_tail_leaves_ten_beyond;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile_nearest_rank;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "faster quartile" `Quick test_fast_quartile;
          Alcotest.test_case "sample counts" `Quick test_sample_counts;
          Alcotest.test_case "tail per trial" `Quick test_tail_per_trial;
          Alcotest.test_case "outage extraction" `Quick test_outages;
          Alcotest.test_case "prefix consistency" `Quick test_prefix_consistent;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "sim-failover identical traced and untraced" `Slow
            test_traced_sim_identical;
        ] );
    ]
