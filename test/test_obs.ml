(* Tests for the observability layer: the metrics registry, the mini JSON
   codec, the event journal, and an integration check that the live
   per-epoch quorum counter respects the Theorem-3 bound under the
   Theorem-4 adversary. *)

open Qs_obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Counters, gauges, histograms *)

let test_counter_basics () =
  let m = Metrics.create () in
  let c = Metrics.counter ~m "requests_total" in
  check_int "starts at zero" 0 (Metrics.counter_value c);
  Metrics.inc c;
  Metrics.inc ~by:5 c;
  check_int "accumulates" 6 (Metrics.counter_value c);
  Alcotest.check_raises "monotonic" (Invalid_argument "Metrics.inc: counters are monotonic")
    (fun () -> Metrics.inc ~by:(-1) c)

let test_counter_reacquire () =
  let m = Metrics.create () in
  Metrics.inc_c ~m "hits";
  Metrics.inc_c ~m "hits";
  (* Re-acquiring the same series returns the same cell. *)
  check_int "same cell" 2 (Metrics.counter_value (Metrics.counter ~m "hits"));
  check_int "find sees it" 2 (Option.get (Metrics.find_counter ~m "hits"))

let test_label_order_irrelevant () =
  let m = Metrics.create () in
  Metrics.inc_c ~m ~labels:[ ("a", "1"); ("b", "2") ] "x";
  Metrics.inc_c ~m ~labels:[ ("b", "2"); ("a", "1") ] "x";
  check_int "permuted labels address one series" 2
    (Option.get (Metrics.find_counter ~m ~labels:[ ("a", "1"); ("b", "2") ] "x"));
  check_bool "different labels are a different series" true
    (Metrics.find_counter ~m ~labels:[ ("a", "1") ] "x" = None)

let test_kind_conflict () =
  let m = Metrics.create () in
  ignore (Metrics.counter ~m "amount");
  Alcotest.check_raises "kind is sticky per name"
    (Invalid_argument "Metrics: amount already registered as a counter") (fun () ->
      ignore (Metrics.gauge ~m "amount"))

let test_gauge_set_max () =
  let m = Metrics.create () in
  let g = Metrics.gauge ~m "watermark" in
  Metrics.set g 3.0;
  Metrics.set_max g 1.0;
  check_bool "set_max keeps the max" true (Metrics.gauge_value g = 3.0);
  Metrics.set_max g 7.5;
  check_bool "set_max raises the max" true (Metrics.gauge_value g = 7.5);
  Metrics.set g 1.0;
  check_bool "set overwrites" true (Metrics.gauge_value g = 1.0)

let test_histogram_semantics () =
  let m = Metrics.create () in
  let h = Metrics.histogram ~m "latency" in
  List.iter (fun v -> Metrics.observe h (float_of_int v)) [ 10; 20; 30; 40; 100 ];
  check_int "count" 5 (Metrics.histogram_count h);
  Alcotest.(check (list (float 1e-9)))
    "samples in observation order"
    [ 10.; 20.; 30.; 40.; 100. ]
    (Metrics.histogram_samples h);
  match Metrics.snapshot ~m () with
  | [ { value = Metrics.Histogram { count; summary = Some s }; _ } ] ->
    check_int "snapshot count" 5 count;
    check_bool "mean" true (s.Qs_stdx.Stats.mean = 40.0);
    check_bool "median" true (s.Qs_stdx.Stats.median = 30.0);
    check_bool "max" true (s.Qs_stdx.Stats.max = 100.0)
  | _ -> Alcotest.fail "expected one histogram point"

let test_reset_keeps_handles () =
  let m = Metrics.create () in
  let c = Metrics.counter ~m "n" in
  let g = Metrics.gauge ~m "g" in
  let h = Metrics.histogram ~m "h" in
  Metrics.inc c;
  Metrics.set g 9.0;
  Metrics.observe h 1.0;
  Metrics.reset ~m ();
  check_int "counter zeroed" 0 (Metrics.counter_value c);
  check_bool "gauge zeroed" true (Metrics.gauge_value g = 0.0);
  check_int "histogram emptied" 0 (Metrics.histogram_count h);
  Metrics.inc c;
  check_int "handle still live after reset" 1 (Metrics.counter_value c);
  check_int "registry still sees the series" 1 (Option.get (Metrics.find_counter ~m "n"))

let test_snapshot_deterministic () =
  let m = Metrics.create () in
  Metrics.inc_c ~m ~labels:[ ("p", "1") ] "b_total";
  Metrics.inc_c ~m ~labels:[ ("p", "0") ] "b_total";
  Metrics.set_g ~m "a_gauge" 2.0;
  let names =
    List.map
      (fun p ->
        p.Metrics.name
        ^ String.concat "" (List.map (fun (k, v) -> k ^ v) p.Metrics.labels))
      (Metrics.snapshot ~m ())
  in
  Alcotest.(check (list string))
    "sorted by name then labels"
    [ "a_gauge"; "b_totalp0"; "b_totalp1" ]
    names;
  check_bool "two snapshots agree" true (Metrics.snapshot ~m () = Metrics.snapshot ~m ())

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_render_text () =
  let m = Metrics.create () in
  Metrics.inc_c ~m ~labels:[ ("p", "0") ] "sent_total";
  let text = Metrics.render_text (Metrics.snapshot ~m ()) in
  check_bool "series id rendered" true (contains ~sub:"sent_total{p=0}" text)

(* ------------------------------------------------------------------ *)
(* JSON *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("null", Json.Null);
        ("flags", Json.List [ Json.Bool true; Json.Bool false ]);
        ("int", Json.Int (-42));
        ("big", Json.Int max_int);
        ("floats", Json.List [ Json.Float 0.1; Json.Float 3.0; Json.Float 1e-9 ]);
        ("text", Json.String "line\n\ttab \"quoted\" back\\slash");
        ("nested", Json.Obj [ ("empty_list", Json.List []); ("empty_obj", Json.Obj []) ]);
      ]
  in
  check_bool "compact round-trips" true (Json.parse_exn (Json.render doc) = doc);
  check_bool "pretty round-trips" true (Json.parse_exn (Json.render_pretty doc) = doc)

let test_json_parse_escapes () =
  check_bool "unicode escape decodes to UTF-8" true
    (Json.parse_exn "\"\\u00e9A\"" = Json.String "\xc3\xa9A");
  check_bool "number classification" true
    (Json.parse_exn "[1, 1.5, -3, 2e3]"
    = Json.List [ Json.Int 1; Json.Float 1.5; Json.Int (-3); Json.Float 2000.0 ])

let test_json_parse_errors () =
  check_bool "trailing garbage rejected" true (Result.is_error (Json.parse "{} x"));
  check_bool "unterminated string rejected" true (Result.is_error (Json.parse "\"abc"));
  check_bool "bare word rejected" true (Result.is_error (Json.parse "nope"))

let test_metrics_json_roundtrip () =
  let m = Metrics.create () in
  Metrics.inc_c ~m ~labels:[ ("p", "0") ] "qs_quorums_issued_total";
  Metrics.set_g ~m ~labels:[ ("f", "2") ] "qs_bound_theorem3" 6.0;
  Metrics.observe_h ~m "net_delivery_latency_ms" 12.5;
  Metrics.observe_h ~m "net_delivery_latency_ms" 25.0;
  let snap = Metrics.snapshot ~m () in
  let json = Metrics.to_json snap in
  (* The rendered JSON parses back to the same tree... *)
  check_bool "render/parse round-trip" true (Json.parse_exn (Json.render json) = json);
  (* ...and the parsed tree carries the same values. *)
  match Json.parse_exn (Json.render json) with
  | Json.List points ->
    check_int "three series" 3 (List.length points);
    let by_name name =
      List.find
        (fun p -> Json.member "name" p = Some (Json.String name))
        points
    in
    check_int "counter value survives" 1
      (Json.to_int_exn (Option.get (Json.member "value" (by_name "qs_quorums_issued_total"))));
    check_bool "gauge value survives" true
      (Json.to_float_exn (Option.get (Json.member "value" (by_name "qs_bound_theorem3")))
      = 6.0);
    check_int "histogram count survives" 2
      (Json.to_int_exn
         (Option.get (Json.member "count" (by_name "net_delivery_latency_ms"))))
  | _ -> Alcotest.fail "expected a JSON list"

(* ------------------------------------------------------------------ *)
(* Journal *)

let test_journal_disabled_is_noop () =
  let j = Journal.create () in
  Journal.record ~j (Journal.Custom "ignored");
  check_int "disabled journal records nothing" 0 (Journal.length ~j ())

let test_journal_records_in_order () =
  let j = Journal.create () in
  Journal.set_enabled ~j true;
  Journal.record ~j ~at:1.0 (Journal.Net_sent { src = 0; dst = 1 });
  Journal.record ~j ~at:2.0 (Journal.Quorum_issued { who = 0; epoch = 1; quorum = [ 0; 1 ] });
  Journal.record ~j ~at:3.0 (Journal.Suspicion_raised { who = 1; suspect = 2 });
  let es = Journal.entries ~j () in
  check_int "three entries" 3 (List.length es);
  Alcotest.(check (list int)) "sequence numbers" [ 0; 1; 2 ]
    (List.map (fun e -> e.Journal.seq) es);
  check_string "renders the quorum"
    "quorum-issued p0 epoch=1 quorum={0,1}"
    (Journal.event_to_string (List.nth es 1).Journal.event)

let test_journal_capacity_ring () =
  let j = Journal.create ~capacity:3 () in
  Journal.set_enabled ~j true;
  for i = 0 to 9 do
    Journal.record ~j (Journal.Commit { who = 0; slot = i })
  done;
  check_int "bounded" 3 (Journal.length ~j ());
  check_int "drops counted" 7 (Journal.dropped ~j ());
  Alcotest.(check (list int)) "oldest evicted first" [ 7; 8; 9 ]
    (List.map
       (fun e ->
         match e.Journal.event with Journal.Commit { slot; _ } -> slot | _ -> -1)
       (Journal.entries ~j ()));
  Journal.clear ~j ();
  check_int "clear empties" 0 (Journal.length ~j ());
  check_int "clear resets drops" 0 (Journal.dropped ~j ())

let test_journal_json () =
  let j = Journal.create () in
  Journal.set_enabled ~j true;
  Journal.record ~j ~at:1.5 (Journal.View_change { who = 2; view = 3; group = [ 0; 2 ] });
  match Json.member "events" (Journal.to_json ~j ()) with
  | Some (Json.List [ e ]) ->
    check_bool "event tag" true (Json.member "event" e = Some (Json.String "view_change"));
    check_bool "timestamp" true (Json.member "at_ms" e = Some (Json.Float 1.5))
  | _ -> Alcotest.fail "expected one journal event"

(* ------------------------------------------------------------------ *)
(* Integration: live protocol runs feed the default registry *)

(* The Theorem-4 adversary replayed against the live gossip cluster: the
   per-epoch quorum counter at every process must respect the Theorem-3
   bound f(f+1) — and, per the Section VI-B conjecture, even C(f+2,2). *)
let test_theorem3_bound_live () =
  List.iter
    (fun f ->
      Metrics.reset ();
      let n = (2 * f) + 2 in
      let setup = Qs_adversary.Theorem4.default_setup ~n ~f in
      let game = Qs_adversary.Theorem4.greedy setup in
      let issued = Qs_adversary.Theorem4.replay setup game in
      check_bool "adversary forced at least one quorum" true (issued > 0);
      let bound = f * (f + 1) in
      let conjecture = (f + 2) * (f + 1) / 2 in
      for p = 0 to n - 1 do
        match
          Metrics.find_gauge ~labels:[ ("p", string_of_int p) ]
            "qs_quorums_per_epoch_max"
        with
        | None -> Alcotest.fail "per-epoch gauge missing"
        | Some max_per_epoch ->
          check_bool
            (Printf.sprintf "f=%d p=%d: per-epoch quorums %.0f within f(f+1)=%d" f p
               max_per_epoch bound)
            true
            (int_of_float max_per_epoch <= bound);
          check_bool
            (Printf.sprintf "f=%d p=%d: within conjectured C(f+2,2)=%d" f p conjecture)
            true
            (int_of_float max_per_epoch <= conjecture)
      done;
      (* The published bound gauges match the formulas. *)
      check_bool "theorem3 gauge" true
        (Metrics.find_gauge ~labels:[ ("f", string_of_int f) ] "qs_bound_theorem3"
        = Some (float_of_int bound)))
    [ 1; 2; 3 ]

(* A full XPaxos run under a mute leader: commits, view changes, detector
   suspicions and network traffic all appear in one snapshot, and the
   journal captures the typed event stream. *)
let test_xpaxos_snapshot_and_journal () =
  Metrics.reset ();
  Journal.clear ();
  Journal.set_enabled true;
  let ms = Qs_sim.Stime.of_ms in
  let config =
    {
      Qs_xpaxos.Replica.n = 5;
      f = 2;
      mode = Qs_xpaxos.Replica.Quorum_selection;
      initial_timeout = ms 25;
      timeout_strategy = Qs_fd.Timeout.Exponential { factor = 2.0; max = ms 2000 };
    }
  in
  let c = Qs_xpaxos.Xcluster.create ~seed:7L config in
  Qs_xpaxos.Xcluster.set_fault c 0 Qs_xpaxos.Replica.Mute;
  let rs =
    List.map
      (Qs_xpaxos.Xcluster.submit c ~resubmit_every:(ms 100))
      [ "a"; "b"; "c" ]
  in
  Qs_xpaxos.Xcluster.run ~until:(ms 5000) c;
  Journal.set_enabled false;
  check_bool "requests committed" true
    (List.for_all (Qs_xpaxos.Xcluster.is_committed c) rs);
  let total name =
    List.fold_left
      (fun acc p ->
        acc
        + Option.value ~default:0
            (Metrics.find_counter ~labels:[ ("p", string_of_int p) ] name))
      0
      [ 0; 1; 2; 3; 4 ]
  in
  check_bool "commits counted" true (total "xp_commits_total" > 0);
  check_bool "view changes counted" true (total "xp_view_changes_total" > 0);
  check_bool "suspicions counted" true (total "fd_suspicions_total" > 0);
  check_bool "network counted" true
    (Option.value ~default:0 (Metrics.find_counter "net_sent_total") > 0);
  let events = List.map (fun e -> e.Journal.event) (Journal.entries ()) in
  let has pred = List.exists pred events in
  check_bool "journal saw sends" true
    (has (function Journal.Net_sent _ -> true | _ -> false));
  check_bool "journal saw suspicions" true
    (has (function Journal.Suspicion_raised _ -> true | _ -> false));
  check_bool "journal saw view changes" true
    (has (function Journal.View_change _ -> true | _ -> false));
  check_bool "journal saw commits" true
    (has (function Journal.Commit _ -> true | _ -> false));
  check_bool "journal timestamps are monotone" true
    (let rec mono = function
       | a :: (b :: _ as rest) -> a.Journal.at <= b.Journal.at && mono rest
       | _ -> true
     in
     mono (Journal.entries ()))

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "counter reacquire" `Quick test_counter_reacquire;
          Alcotest.test_case "label order" `Quick test_label_order_irrelevant;
          Alcotest.test_case "kind conflict" `Quick test_kind_conflict;
          Alcotest.test_case "gauge set/set_max" `Quick test_gauge_set_max;
          Alcotest.test_case "histogram semantics" `Quick test_histogram_semantics;
          Alcotest.test_case "reset keeps handles" `Quick test_reset_keeps_handles;
          Alcotest.test_case "snapshot deterministic" `Quick test_snapshot_deterministic;
          Alcotest.test_case "render text" `Quick test_render_text;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes" `Quick test_json_parse_escapes;
          Alcotest.test_case "errors" `Quick test_json_parse_errors;
          Alcotest.test_case "metrics roundtrip" `Quick test_metrics_json_roundtrip;
        ] );
      ( "journal",
        [
          Alcotest.test_case "disabled noop" `Quick test_journal_disabled_is_noop;
          Alcotest.test_case "ordered entries" `Quick test_journal_records_in_order;
          Alcotest.test_case "capacity ring" `Quick test_journal_capacity_ring;
          Alcotest.test_case "json" `Quick test_journal_json;
        ] );
      ( "integration",
        [
          Alcotest.test_case "theorem-3 bound on live counters" `Quick
            test_theorem3_bound_live;
          Alcotest.test_case "xpaxos snapshot + journal" `Quick
            test_xpaxos_snapshot_and_journal;
        ] );
    ]
