(* Model-checker tests: schedule round-trips, the engine's exploration /
   reduction / shrinking machinery on a toy system, exhaustion of real
   protocol instances with pinned state counts, the seeded-bug detection
   pipeline, the randomized walker, and the support fixes that ride along
   (Monitor.reset, Campaign.greedy_shrink, Fault.of_string). *)

module Engine = Qs_mc.Engine
module Schedule = Qs_mc.Schedule
module MC = Qs_harness.Modelcheck
module Monitor = Qs_faults.Monitor
module Campaign = Qs_faults.Campaign
module Fault = Qs_faults.Fault
module Journal = Qs_obs.Journal

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Schedule text format *)

let test_schedule_roundtrip () =
  let s =
    [ Schedule.Deliver 3; Schedule.Step; Schedule.Fire 1; Schedule.Amnesia 2; Schedule.Deliver 0 ]
  in
  check_string "render" "d3;t;f1;a2;d0" (Schedule.to_string s);
  check_bool "roundtrip" true (Schedule.of_string (Schedule.to_string s) = s);
  check_bool "empty" true (Schedule.of_string "" = []);
  check_bool "spaces tolerated" true (Schedule.of_string " d1 ; t " = [ Schedule.Deliver 1; Schedule.Step ])

let test_schedule_rejects_garbage () =
  List.iter
    (fun s ->
      match Schedule.of_string s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "accepted %S" s)
    [ "x3"; "d"; "d-1"; "dd3"; "t3"; "d1;;d2"; "a"; "a-2" ]

(* ------------------------------------------------------------------ *)
(* Engine on a toy system: 3 commuting deliveries to distinct receivers *)

let toy ?(bug = false) ?(with_snapshot = false) () =
  let delivered = ref [] in
  let enabled () =
    List.filter_map
      (fun i ->
        if List.mem i !delivered then None
        else
          Some
            {
              Engine.choice = Schedule.Deliver i;
              canon = "m" ^ string_of_int i;
              receiver = Some i;
            })
      [ 0; 1; 2 ]
  in
  {
    Engine.reset = (fun () -> delivered := []);
    enabled;
    apply =
      (function
      | Schedule.Deliver i when i < 3 && not (List.mem i !delivered) ->
        delivered := i :: !delivered;
        true
      | _ -> false);
    fingerprint =
      (fun () -> String.concat "," (List.map string_of_int (List.sort compare !delivered)));
    violations =
      (fun () ->
        if bug && List.mem 0 !delivered && List.mem 1 !delivered then
          [ ("pair", "messages 0 and 1 both delivered") ]
        else []);
    quiescent_violations = (fun () -> []);
    symmetry = None;
    snapshot =
      (if with_snapshot then
         Some
           (fun () ->
             let saved = !delivered in
             fun () -> delivered := saved)
       else None);
  }

let test_toy_exhausts () =
  let r = Engine.explore ~depth:5 (toy ()) in
  check_bool "complete" true r.Engine.complete;
  check_int "visited = subsets of {0,1,2}" 8 r.Engine.visited;
  check_int "one quiescent state" 1 r.Engine.quiescent;
  check_int "no violations" 0 (List.length r.Engine.violations);
  check_int "no truncation" 0 r.Engine.truncated;
  check_bool "POR pruned something" true (r.Engine.sleep_pruned > 0)

let test_toy_snapshot_path_agrees () =
  let a = Engine.explore ~depth:5 (toy ()) in
  let b = Engine.explore ~depth:5 (toy ~with_snapshot:true ()) in
  check_int "visited agree" a.Engine.visited b.Engine.visited;
  check_int "quiescent agree" a.Engine.quiescent b.Engine.quiescent;
  check_int "transitions agree" a.Engine.transitions b.Engine.transitions

let test_toy_por_off_same_states () =
  let on = Engine.explore ~depth:5 (toy ()) in
  let off = Engine.explore ~por:false ~depth:5 (toy ()) in
  check_int "same state count without POR" on.Engine.visited off.Engine.visited;
  check_int "no sleep pruning without POR" 0 off.Engine.sleep_pruned;
  check_bool "POR executes fewer transitions" true (on.Engine.transitions <= off.Engine.transitions)

let test_toy_bug_found_and_shrunk () =
  let r = Engine.explore ~depth:5 (toy ~bug:true ()) in
  match r.Engine.violations with
  | [ v ] ->
    check_string "check name" "pair" v.Engine.check;
    check_int "shrunk to the two relevant deliveries" 2 (List.length v.Engine.schedule);
    let ids =
      List.sort compare
        (List.map (function Schedule.Deliver i -> i | _ -> -1) v.Engine.schedule)
    in
    check_bool "exactly {d0,d1}" true (ids = [ 0; 1 ]);
    (* The shrunk schedule replays to the same violation; dropping either
       choice loses it (local minimality). *)
    check_bool "replays" true
      (List.exists (fun (c, _) -> c = "pair") (Engine.replay (toy ~bug:true ()) v.Engine.schedule));
    List.iteri
      (fun i _ ->
        let shorter = List.filteri (fun j _ -> j <> i) v.Engine.schedule in
        check_bool "minimal" false
          (List.exists (fun (c, _) -> c = "pair") (Engine.replay (toy ~bug:true ()) shorter)))
      v.Engine.schedule
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

let test_toy_replay_skips_unknown_ids () =
  let violated =
    Engine.replay (toy ~bug:true ()) [ Schedule.Deliver 9; Schedule.Deliver 0; Schedule.Deliver 1 ]
  in
  check_bool "unknown id skipped, violation still reached" true
    (List.exists (fun (c, _) -> c = "pair") violated);
  check_int "clean system, clean replay" 0
    (List.length (Engine.replay (toy ()) [ Schedule.Deliver 0; Schedule.Deliver 1 ]))

(* ------------------------------------------------------------------ *)
(* Real instances: exhaustion with pinned counts, determinism *)

(* n=3, f=1, p0 initially suspects p2: the UPDATE gossip fully drains within
   11 choices and every interleaving funnels into a single quiescent state —
   agreement and convergence made visible. The counts are deterministic;
   a change means the exploration (or the protocol) changed. *)
let quorum_n3_spec =
  { (MC.default_spec MC.Quorum) with MC.n = 3; injections = [ (0, [ 2 ]) ] }

let test_quorum_n3_exhausts () =
  let r = Engine.explore ~depth:12 (MC.make quorum_n3_spec) in
  check_bool "complete" true r.Engine.complete;
  check_int "visited" 1135 r.Engine.visited;
  check_int "revisit pruned" 1927 r.Engine.revisit_pruned;
  check_int "sleep pruned" 4862 r.Engine.sleep_pruned;
  check_int "single quiescent state" 1 r.Engine.quiescent;
  check_int "no violations" 0 (List.length r.Engine.violations)

let test_quorum_n4_bounded_stable () =
  let explore () = Engine.explore ~depth:4 (MC.make (MC.default_spec MC.Quorum)) in
  let a = explore () and b = explore () in
  check_int "visited pinned" 509 a.Engine.visited;
  check_int "deterministic visited" a.Engine.visited b.Engine.visited;
  check_int "deterministic transitions" a.Engine.transitions b.Engine.transitions;
  check_bool "bounded, not complete" false a.Engine.complete;
  check_int "no violations" 0 (List.length a.Engine.violations)

let test_follower_bounded_clean () =
  let r = Engine.explore ~depth:4 (MC.make (MC.default_spec MC.Follower)) in
  check_int "no violations" 0 (List.length r.Engine.violations);
  check_bool "explored something" true (r.Engine.visited > 100)

let test_xpaxos_bounded_clean () =
  let r = Engine.explore ~depth:4 (MC.make (MC.default_spec (MC.Stack "xpaxos"))) in
  check_int "no violations" 0 (List.length r.Engine.violations);
  check_bool "explored something" true (r.Engine.visited > 50);
  check_bool "bounded" false r.Engine.complete

(* ------------------------------------------------------------------ *)
(* Amnesia crashes in the quorum instance *)

(* No gossip, just the crash: p1 loses its (empty) state, broadcasts
   State_req, and every interleaving of the two requests and two responses
   re-integrates it. Tiny by construction — the space is the rejoin
   machinery alone — and every terminal state passed the quiescent
   agreement/convergence checks with the recovered process included. *)
let amnesia_only_spec =
  { (MC.default_spec MC.Quorum) with MC.n = 3; injections = []; faults = [ MC.Amnesia 1 ] }

let test_amnesia_only_exhausts () =
  let r = Engine.explore ~depth:12 (MC.make amnesia_only_spec) in
  check_bool "complete" true r.Engine.complete;
  check_int "visited" 11 r.Engine.visited;
  check_int "quiescent states (req orderings funnel into two)" 2 r.Engine.quiescent;
  check_int "no violations" 0 (List.length r.Engine.violations);
  check_int "no truncation" 0 r.Engine.truncated

(* Recovery interleaved with live UPDATE gossip: p0's suspicion of p2 is
   in flight while p1 may crash at any explored point. Too big to exhaust
   here; a bounded sweep plus full-depth random walks (each walk runs to
   quiescence, so rejoins complete) keep it honest. *)
let amnesia_gossip_spec =
  { (MC.default_spec MC.Quorum) with MC.n = 3; injections = [ (0, [ 2 ]) ]; faults = [ MC.Amnesia 1 ] }

let test_amnesia_gossip_bounded_clean () =
  let r = Engine.explore ~depth:6 (MC.make amnesia_gossip_spec) in
  check_int "visited pinned" 2659 r.Engine.visited;
  check_bool "bounded, not complete" false r.Engine.complete;
  check_int "no violations" 0 (List.length r.Engine.violations)

let test_amnesia_gossip_walks_recover () =
  let r = Engine.random ~seed:4242 ~iters:50 (MC.make amnesia_gossip_spec) in
  check_int "every walk reaches quiescence" 50 r.Engine.quiescent;
  check_int "no violations" 0 (List.length r.Engine.violations)

(* ------------------------------------------------------------------ *)
(* Fault table: every kind is validated and parsed alike *)

let fault_kinds =
  [
    ("amnesia", fun p -> MC.Amnesia p);
    ("equivocate", fun p -> MC.Equivocate p);
    ("churn", fun p -> MC.Churn p);
    ("region", fun p -> MC.Region [ p ]);
  ]

let test_fault_spec_validation () =
  let quorum = MC.default_spec MC.Quorum in
  let reject name spec =
    match MC.make spec with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "accepted %s" name
  in
  List.iter
    (fun (kind, mk) ->
      (* The control: the same kind on a free pid is accepted. *)
      ignore (MC.make { quorum with MC.faults = [ mk 1 ] });
      reject (kind ^ " outside quorum") { (MC.default_spec MC.Follower) with MC.faults = [ mk 1 ] };
      reject (kind ^ " of a crashed process") { quorum with MC.crashes = [ 2 ]; faults = [ mk 2 ] };
      reject (kind ^ " + crash over the f budget") { quorum with MC.crashes = [ 2 ]; faults = [ mk 1 ] };
      reject ("duplicate " ^ kind ^ " pid") { quorum with MC.faults = [ mk 1; mk 1 ] };
      reject (kind ^ " pid out of range") { quorum with MC.faults = [ mk 9 ] })
    fault_kinds;
  reject "empty region" { quorum with MC.faults = [ MC.Region [] ] };
  reject "duplicate region member" { quorum with MC.faults = [ MC.Region [ 1; 1 ] ] }

let test_fault_of_string () =
  List.iter
    (fun (kind, mk) ->
      check_bool (kind ^ " parses") true (MC.fault_of_string (kind ^ ":2") = Some (mk 2));
      match MC.fault_of_string (kind ^ ":x") with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "accepted %s:x" kind)
    fault_kinds;
  check_bool "multi-member region" true (MC.fault_of_string "region:2,3" = Some (MC.Region [ 2; 3 ]));
  check_bool "kind is case-insensitive" true (MC.fault_of_string "Churn:1" = Some (MC.Churn 1));
  check_bool "an injection is no fault" true (MC.fault_of_string "0:4" = None);
  check_bool "no colon, no fault" true (MC.fault_of_string "amnesia" = None)

(* ------------------------------------------------------------------ *)
(* Seeded bug: find, shrink, replay *)

let seeded_spec = { (MC.default_spec MC.Quorum) with MC.seeded_bug = true }

(* Quorum: a single delivery of the suspicion UPDATE already issues the
   undersized quorum, so the shrunk counterexample is one choice. Every
   stack that selects by Algorithm 1: a timer pop (the detector suspects)
   and one delivery; the XPaxos replica rejects the undersized quorum by
   raising, which the checker reports as an "exception" violation next to
   quorum-size instead of crashing. *)
let test_seeded_bug_found (protocol, depth, shrunk) () =
  let spec = { (MC.default_spec protocol) with MC.seeded_bug = true } in
  let r = Engine.explore ~depth (MC.make spec) in
  Qs_core.Quorum_select.test_buggy_quorum_size := false;
  match List.find_opt (fun v -> v.Engine.check = "quorum-size") r.Engine.violations with
  | None -> Alcotest.fail "seeded quorum-size bug not found"
  | Some v ->
    check_int "shrunk" shrunk (List.length v.Engine.schedule);
    let violated = Engine.replay (MC.make spec) v.Engine.schedule in
    Qs_core.Quorum_select.test_buggy_quorum_size := false;
    check_bool "replays deterministically" true
      (List.exists (fun (c, _) -> c = "quorum-size") violated);
    let clean = Engine.replay (MC.make (MC.default_spec protocol)) v.Engine.schedule in
    check_int "same schedule is clean without the bug" 0 (List.length clean)

(* ------------------------------------------------------------------ *)
(* State partition: which states each instance's keys merge, pinned
   independently of the key format. The wrapper numbers every key the
   engine asks for by its first occurrence; the SHA-256 of that class-id
   sequence moves if and only if a key draws a distinction it did not
   draw before (or stops drawing one), whatever bytes the keys are. *)

let partition_digest spec =
  let system = MC.make spec in
  let ids = Hashtbl.create 4096 and seq = Buffer.create 4096 in
  let fingerprint () =
    let key = system.Engine.fingerprint () in
    let id =
      match Hashtbl.find_opt ids key with
      | Some id -> id
      | None ->
        let id = Hashtbl.length ids in
        Hashtbl.add ids key id;
        id
    in
    Buffer.add_string seq (string_of_int id);
    Buffer.add_char seq ',';
    key
  in
  ignore (Engine.explore ~shrink:false ~depth:4 { system with Engine.fingerprint });
  Qs_core.Quorum_select.test_buggy_quorum_size := false;
  Qs_crypto.Sha256.digest_hex (Buffer.contents seq)

let partition_pins =
  [
    ("follower", MC.Follower, false,
     "9d81c0ff78592c0df77d71a964994fab583bad8a1e6bf5194d442aa8eca26e47");
    ("xpaxos-enum", MC.Stack "xpaxos-enum", false,
     "f5ff92c990c4f1827943b3a4ad156a192658948498c71f76f93570c1977ec793");
    ("xpaxos", MC.Stack "xpaxos", false,
     "0f9c301f68d83ac95cbdb6ba35492c4fde471935fe7d670d89fab869cbcde3ae");
    ("pbft-full", MC.Stack "pbft-full", false,
     "4680100209bfce2b9437fc0a4114d29bdeae6d5835f673e3b511cc054ca94aac");
    ("pbft-selected", MC.Stack "pbft-selected", false,
     "99dfacd093e4ae4db96b688ddfba32962667672579556c0faff4d7cafb52f47c");
    ("minbft-full", MC.Stack "minbft-full", false,
     "9d0c2a40ab2d1adc164fdae1132f7785e7847b38fab23aaf01f05845d6ff7471");
    ("minbft-selected", MC.Stack "minbft-selected", false,
     "ba51b801653b51c6d4d6e39f36165f914658c6bb9ee280ce3e086c7bc88ef4d5");
    ("chain", MC.Stack "chain", false,
     "dc0960af3b356437c40167d82cae087ed7810f33613f45abcc472fb2a4997a31");
    ("star", MC.Stack "star", false,
     "edd45641e42736d78fc1941538177f651d4ccf1aeb369664a8cfbedab478f9ce");
    ("xpaxos --seeded-bug", MC.Stack "xpaxos", true,
     "636c0a36f0675a788c8467a30eef8d45060e39fcf20fbfa3ef07a800e558d508");
    ("pbft-selected --seeded-bug", MC.Stack "pbft-selected", true,
     "ceac242ac3567a74d93e51422dab51b16e7675a440c2cb95c1a5aff712b8d7c4");
  ]

let test_partition (_, protocol, seeded_bug, pinned) () =
  let spec = { (MC.default_spec protocol) with MC.seeded_bug } in
  check_string "class-id sequence digest" pinned (partition_digest spec)

(* ------------------------------------------------------------------ *)
(* Random walker *)

let test_random_deterministic () =
  let run () = Engine.random ~seed:99 ~iters:20 (MC.make quorum_n3_spec) in
  let a = run () and b = run () in
  check_int "same visited" a.Engine.visited b.Engine.visited;
  check_int "same transitions" a.Engine.transitions b.Engine.transitions;
  check_int "same quiescent" a.Engine.quiescent b.Engine.quiescent;
  check_int "clean walks" 0 (List.length a.Engine.violations);
  check_bool "walks reach quiescence" true (a.Engine.quiescent > 0)

let test_random_finds_seeded_bug () =
  let r = Engine.random ~seed:5 ~iters:20 (MC.make seeded_spec) in
  Qs_core.Quorum_select.test_buggy_quorum_size := false;
  check_bool "random mode finds the seeded bug" true
    (List.exists (fun v -> v.Engine.check = "quorum-size") r.Engine.violations)

(* ------------------------------------------------------------------ *)
(* Satellite fixes: Monitor.reset, greedy_shrink, Fault.of_string *)

let test_monitor_reset () =
  let was_live = Journal.live () in
  Journal.set_enabled true;
  Journal.clear ();
  let m =
    Monitor.create
      {
        Monitor.n = 4;
        f = 1;
        correct = [ 0; 1; 2; 3 ];
        quorum_bound = Some 2;
        bound_gauge = None;
        settle = Qs_sim.Stime.of_ms 50;
        rejoin_retry_bound = None;
      }
  in
  for _ = 1 to 3 do
    Journal.record (Journal.Quorum_issued { who = 0; epoch = 1; quorum = [ 0; 1; 2 ] })
  done;
  check_bool "bound violation observed" true (Monitor.violations m <> []);
  check_bool "checks counted" true (Monitor.checks_run m > 0);
  Monitor.reset m;
  check_bool "violations forgotten" true (Monitor.violations m = []);
  check_int "counters forgotten" 0 (Monitor.checks_run m);
  (* Still subscribed, and the per-epoch accounting restarts from zero:
     two more issues stay under the bound, a third trips it again. *)
  Journal.record (Journal.Quorum_issued { who = 0; epoch = 1; quorum = [ 0; 1; 2 ] });
  Journal.record (Journal.Quorum_issued { who = 0; epoch = 1; quorum = [ 0; 1; 3 ] });
  check_bool "accounting restarted (no leak from before reset)" true (Monitor.violations m = []);
  Journal.record (Journal.Quorum_issued { who = 0; epoch = 1; quorum = [ 0; 2; 3 ] });
  check_bool "still live after reset" true (Monitor.violations m <> []);
  Monitor.detach m;
  Journal.clear ();
  Journal.set_enabled was_live

let test_greedy_shrink () =
  let attempts = ref 0 in
  let minimal, steps =
    Campaign.greedy_shrink
      ~candidates:(fun xs -> List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) xs) xs)
      ~still_fails:(fun xs ->
        incr attempts;
        List.mem 3 xs)
      [ 1; 2; 3; 4; 5 ]
  in
  check_bool "minimized to the failing core" true (minimal = [ 3 ]);
  check_int "steps = oracle calls" !attempts steps;
  (* Already-minimal input: no candidate helps, zero-cost identity. *)
  let m2, _ = Campaign.greedy_shrink ~candidates:(fun _ -> []) ~still_fails:(fun _ -> true) [ 7 ] in
  check_bool "fixpoint on minimal input" true (m2 = [ 7 ])

let test_fault_of_string_roundtrip () =
  let n = 5 in
  let schedules =
    [
      [];
      [ Fault.at (Fault.Crash 2) ];
      [ Fault.at ~start:120 ~stop:4000 (Fault.Omit { src = 0; dst = 3 }) ];
      [
        Fault.at (Fault.Delay { src = 1; dst = 2; by = 60_000 });
        Fault.at ~start:500 (Fault.Duplicate { src = 4; dst = 0; copies = 3 });
      ];
      [ Fault.at ~stop:2_000_000 (Fault.Partition [ 0; 1 ]) ];
    ]
  in
  List.iter
    (fun s ->
      let rendered = Fault.to_string s in
      let parsed = Fault.of_string ~n rendered in
      check_string ("roundtrip " ^ rendered) rendered (Fault.to_string parsed))
    schedules;
  (match Fault.of_string ~n "gibberish" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted gibberish");
  match Fault.of_string ~n "crash p9" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted out-of-range pid"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mc"
    [
      ( "schedule",
        [
          Alcotest.test_case "roundtrip" `Quick test_schedule_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_schedule_rejects_garbage;
        ] );
      ( "engine",
        [
          Alcotest.test_case "toy exhausts" `Quick test_toy_exhausts;
          Alcotest.test_case "snapshot path agrees" `Quick test_toy_snapshot_path_agrees;
          Alcotest.test_case "por off, same states" `Quick test_toy_por_off_same_states;
          Alcotest.test_case "bug found and shrunk" `Quick test_toy_bug_found_and_shrunk;
          Alcotest.test_case "replay skips unknown ids" `Quick test_toy_replay_skips_unknown_ids;
        ] );
      ( "instances",
        [
          Alcotest.test_case "quorum n=3 exhausts" `Quick test_quorum_n3_exhausts;
          Alcotest.test_case "quorum n=4 stable counts" `Quick test_quorum_n4_bounded_stable;
          Alcotest.test_case "follower bounded clean" `Quick test_follower_bounded_clean;
          Alcotest.test_case "xpaxos bounded clean" `Quick test_xpaxos_bounded_clean;
        ] );
      ( "partition",
        List.map
          (fun ((name, _, _, _) as pin) ->
            Alcotest.test_case (name ^ " depth 4") `Quick (test_partition pin))
          partition_pins );
      ( "amnesia",
        [
          Alcotest.test_case "amnesia-only exhausts" `Quick test_amnesia_only_exhausts;
          Alcotest.test_case "gossip + crash bounded clean" `Quick test_amnesia_gossip_bounded_clean;
          Alcotest.test_case "walks recover" `Quick test_amnesia_gossip_walks_recover;
        ] );
      ( "fault-table",
        [
          Alcotest.test_case "spec validation" `Quick test_fault_spec_validation;
          Alcotest.test_case "of_string" `Quick test_fault_of_string;
        ] );
      ( "seeded-bug",
        [
          Alcotest.test_case "found, shrunk, replayed" `Quick
            (test_seeded_bug_found (MC.Quorum, 3, 1));
          Alcotest.test_case "xpaxos found, shrunk, replayed" `Quick
            (test_seeded_bug_found (MC.Stack "xpaxos", 4, 2));
          Alcotest.test_case "pbft-selected found, shrunk, replayed" `Quick
            (test_seeded_bug_found (MC.Stack "pbft-selected", 4, 2));
          Alcotest.test_case "minbft-selected found, shrunk, replayed" `Quick
            (test_seeded_bug_found (MC.Stack "minbft-selected", 4, 2));
          Alcotest.test_case "chain found, shrunk, replayed" `Quick
            (test_seeded_bug_found (MC.Stack "chain", 4, 2));
          Alcotest.test_case "random mode finds it" `Quick test_random_finds_seeded_bug;
        ] );
      ( "random",
        [ Alcotest.test_case "deterministic" `Quick test_random_deterministic ] );
      ( "satellites",
        [
          Alcotest.test_case "Monitor.reset" `Quick test_monitor_reset;
          Alcotest.test_case "greedy_shrink" `Quick test_greedy_shrink;
          Alcotest.test_case "Fault.of_string roundtrip" `Quick test_fault_of_string_roundtrip;
        ] );
    ]
