(* XPaxos tests: enumeration mapping, log, normal case (Fig. 2), delayed
   PREPARE (Fig. 3), failure handling via the expectation-based detector, and
   both view-change modes. *)

open Qs_xpaxos
module Sim = Qs_sim.Sim
module Network = Qs_sim.Network
module Stime = Qs_sim.Stime
module Timeout = Qs_fd.Timeout
module Detector = Qs_fd.Detector

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_ilist = Alcotest.(check (list int))

let ms = Stime.of_ms

let base_config ?(mode = Replica.Enumeration) ?(n = 5) ?(f = 2) ?(timeout = ms 50) () =
  {
    Replica.n;
    f;
    mode;
    initial_timeout = timeout;
    timeout_strategy = Timeout.Exponential { factor = 2.0; max = ms 2000 };
  }

(* ------------------------------------------------------------------ *)
(* Enumeration *)

let test_enumeration_count () =
  check_int "C(5,3)" 10 (Enumeration.count ~n:5 ~q:3);
  check_int "C(3,2)" 3 (Enumeration.count ~n:3 ~q:2)

let test_enumeration_groups () =
  check_ilist "view 0" [ 0; 1; 2 ] (Enumeration.group ~n:5 ~q:3 ~view:0);
  check_ilist "view 1" [ 0; 1; 3 ] (Enumeration.group ~n:5 ~q:3 ~view:1);
  check_ilist "wraps around" [ 0; 1; 2 ] (Enumeration.group ~n:5 ~q:3 ~view:10);
  check_int "leader is min" 0 (Enumeration.leader ~n:5 ~q:3 ~view:1);
  check_int "later leader" 2 (Enumeration.leader ~n:5 ~q:3 ~view:9)

let test_enumeration_view_for () =
  let v = Enumeration.view_for ~n:5 ~q:3 ~at_least:0 ~group:[ 0; 1; 3 ] in
  check_int "rank 1" 1 v;
  let v2 = Enumeration.view_for ~n:5 ~q:3 ~at_least:2 ~group:[ 0; 1; 3 ] in
  check_int "next cycle" 11 v2;
  let v3 = Enumeration.view_for ~n:5 ~q:3 ~at_least:11 ~group:[ 0; 1; 3 ] in
  check_int "exact" 11 v3;
  Alcotest.check_raises "invalid group"
    (Invalid_argument "Enumeration.view_for: not a sorted q-subset") (fun () ->
      ignore (Enumeration.view_for ~n:5 ~q:3 ~at_least:0 ~group:[ 1; 0; 3 ]))

(* ------------------------------------------------------------------ *)
(* Xlog *)

let req op = { Xmsg.client = 0; rid = 0; op }

let sp_for auth ~leader ~view ~slot op =
  Xmsg.sign_prepare auth ~leader { Xmsg.view; slot; request = req op }

let test_xlog_basics () =
  let log = Xlog.create () in
  check_int "empty max" (-1) (Xlog.max_slot log);
  check_int "next slot" 0 (Xlog.next_slot log);
  let e = Xlog.entry log 3 in
  check_int "created" 3 e.Xlog.slot;
  check_int "max updated" 3 (Xlog.max_slot log);
  Xlog.record_vote e 1;
  Xlog.record_vote e 1;
  check_ilist "votes deduped" [ 1 ] e.Xlog.votes

let test_xlog_executed_prefix_stops_at_gap () =
  let auth = Qs_crypto.Auth.create 3 in
  let log = Xlog.create () in
  let mk slot =
    let e = Xlog.entry log slot in
    Xlog.set_prepare log e
      (sp_for auth ~leader:0 ~view:0 ~slot (Printf.sprintf "op%d" slot));
    Xlog.mark_committed log e;
    Xlog.mark_executed e
  in
  mk 0;
  mk 1;
  mk 3;
  (* slot 2 missing *)
  check_int "prefix stops at gap" 2 (List.length (Xlog.executed_prefix log))

let test_xlog_to_entries () =
  let auth = Qs_crypto.Auth.create 3 in
  let log = Xlog.create () in
  let e = Xlog.entry log 0 in
  Xlog.set_prepare log e (sp_for auth ~leader:0 ~view:2 ~slot:0 "x");
  Xlog.mark_committed log e;
  ignore (Xlog.entry log 1);
  (* no prepare: not exported *)
  let entries = Xlog.to_entries log in
  check_int "only prepared slots" 1 (List.length entries);
  let entry = List.hd entries in
  check_int "view" 2 entry.Xmsg.eview;
  check_bool "committed" true entry.Xmsg.ecommitted

(* The change journal: a slot committing and a committed slot re-signed
   are changes; a prepare on an uncommitted slot and an equal prepare are
   not. The journal forgets old changes once they outnumber the committed
   slots, and a clear takes a fresh identity. *)
let test_xlog_changed_since () =
  let auth = Qs_crypto.Auth.create 3 in
  let log = Xlog.create () in
  let slots v =
    Option.map (List.map (fun e -> e.Xmsg.eslot)) (Xlog.changed_since log v)
  in
  let check_slots = Alcotest.(check (option (list int))) in
  let e0 = Xlog.entry log 0 and e1 = Xlog.entry log 1 in
  Xlog.set_prepare log e0 (sp_for auth ~leader:0 ~view:0 ~slot:0 "a");
  Xlog.set_prepare log e1 (sp_for auth ~leader:0 ~view:0 ~slot:1 "b");
  check_int "uncommitted prepares are no change" 0 (Xlog.version log);
  Xlog.mark_committed log e1;
  Xlog.mark_committed log e1;
  check_slots "slot 1 committed once" (Some [ 1 ]) (slots 0);
  let v = Xlog.version log in
  Xlog.set_prepare log e1 (sp_for auth ~leader:0 ~view:0 ~slot:1 "b");
  check_slots "an equal prepare is no change" (Some []) (slots v);
  Xlog.set_prepare log e1 (sp_for auth ~leader:1 ~view:1 ~slot:1 "b");
  check_slots "a re-signed committed slot is" (Some [ 1 ]) (slots v);
  check_slots "ahead of the log" None (slots (Xlog.version log + 1));
  for view = 2 to 200 do
    Xlog.set_prepare log e1 (sp_for auth ~leader:0 ~view ~slot:1 "b")
  done;
  check_slots "old changes forgotten" None (slots 0);
  check_slots "recent ones kept" (Some [ 1 ]) (slots (Xlog.version log - 1));
  let id = Xlog.id log in
  Xlog.clear log;
  check_bool "a clear takes a fresh identity" true (Xlog.id log <> id);
  check_int "and an empty journal" 0 (Xlog.version log)

(* ------------------------------------------------------------------ *)
(* Xmsg *)

let test_xmsg_sign_verify () =
  let auth = Qs_crypto.Auth.create 3 in
  let sp = sp_for auth ~leader:1 ~view:0 ~slot:0 "op" in
  check_bool "prepare verifies" true (Xmsg.verify_prepare auth ~leader:1 sp);
  check_bool "wrong leader" false (Xmsg.verify_prepare auth ~leader:2 sp);
  let m = Xmsg.seal auth ~sender:2 (Xmsg.Prepare sp) in
  check_bool "envelope verifies" true (Xmsg.verify auth m);
  check_bool "sender spoof rejected" false (Xmsg.verify auth { m with Xmsg.sender = 0 })

(* ------------------------------------------------------------------ *)
(* Normal case *)

let test_normal_case_commits () =
  let c = Xcluster.create (base_config ()) in
  let r = Xcluster.submit c "write:a" in
  Xcluster.run c;
  check_bool "globally committed" true (Xcluster.is_committed c r);
  check_ilist "executed by the group" [ 0; 1; 2 ] (Xcluster.executed_by c r);
  check_bool "consistent" true (Xcluster.consistent c ~correct:[ 0; 1; 2; 3; 4 ]);
  check_int "no view changes" 0 (Xcluster.max_view c)

let test_normal_case_ordering () =
  let c = Xcluster.create (base_config ()) in
  let r1 = Xcluster.submit c "a" in
  let r2 = Xcluster.submit c "b" in
  let r3 = Xcluster.submit c "c" in
  Xcluster.run c;
  List.iter
    (fun r -> check_bool "committed" true (Xcluster.is_committed c r))
    [ r1; r2; r3 ];
  let history = Replica.executed (Xcluster.replica c 1) in
  Alcotest.(check (list string)) "in submission order" [ "a"; "b"; "c" ]
    (List.map (fun r -> r.Xmsg.op) history)

let test_normal_case_message_count () =
  (* Fig. 2 pattern in a group of size q: (q-1) PREPAREs + q*(q-1) COMMITs. *)
  let c = Xcluster.create (base_config ()) in
  let _ = Xcluster.submit c "op" in
  Xcluster.run c;
  let q = 3 in
  check_int "message complexity" ((q - 1) + (q * (q - 1))) (Xcluster.message_count c)

let test_no_false_suspicions_in_happy_path () =
  let c = Xcluster.create (base_config ()) in
  for i = 0 to 9 do
    ignore (Xcluster.submit c (Printf.sprintf "op%d" i))
  done;
  Xcluster.run c;
  for p = 0 to 4 do
    check_ilist
      (Printf.sprintf "replica %d suspects nobody" p)
      []
      (Detector.suspected (Replica.detector (Xcluster.replica c p)))
  done

let test_fig3_commit_before_prepare () =
  (* Delay the leader's PREPARE to p3 (id 2) beyond the other links: p3 sees
     COMMITs first, adopts the embedded PREPARE, and still commits. *)
  let c = Xcluster.create (base_config ~timeout:(ms 500) ()) in
  Xcluster.delay_link c ~src:0 ~dst:2 ~by:(ms 20);
  let r = Xcluster.submit c "delayed" in
  Xcluster.run c;
  check_bool "committed despite delay" true (Xcluster.is_committed c r);
  check_bool "p3 executed" true (List.mem 2 (Xcluster.executed_by c r));
  (* Nobody was detected: the delay is within the (long) timeout. *)
  check_ilist "no detections" [] (Replica.detections (Xcluster.replica c 2))

let test_leader_omission_on_one_link_suspected () =
  (* The leader omits everything to p3 only (an omission failure on an
     individual link). p3 learns the request from the other member's COMMIT
     (embedded prepare) and sends its own COMMIT — so the leader and p2
     commit — but p3 itself is stuck without the leader's COMMIT. Its
     detector then suspects the leader, and the view changes route around
     the bad link. *)
  let c = Xcluster.create (base_config ~timeout:(ms 30) ()) in
  Xcluster.omit_link c ~src:0 ~dst:2;
  let r = Xcluster.submit c ~resubmit_every:(ms 100) "omitted-link" in
  Xcluster.run ~until:(ms 25) c;
  (* Before any timeout: the two well-connected members committed thanks to
     p3's COMMIT, but p3 cannot (it misses the leader's vote). *)
  check_ilist "only p1,p2 executed so far" [ 0; 1 ] (Xcluster.executed_by c r);
  Xcluster.run ~until:(ms 3000) c;
  (* After the timeout: p3 suspected the leader, views moved on, and the
     request is committed by a full quorum. *)
  check_bool "view advanced" true (Xcluster.max_view c > 0);
  check_bool "eventually globally committed" true (Xcluster.is_committed c r)

let test_mute_leader_replaced_enumeration () =
  let c = Xcluster.create (base_config ~timeout:(ms 20) ()) in
  Xcluster.set_fault c 0 Replica.Mute;
  let r = Xcluster.submit c ~resubmit_every:(ms 100) "survive" in
  Xcluster.run ~until:(ms 3000) c;
  check_bool "committed despite mute leader" true (Xcluster.is_committed c r);
  check_bool "view advanced past leader 0" true (Xcluster.max_view c > 0);
  check_bool "consistency" true (Xcluster.consistent c ~correct:[ 1; 2; 3; 4 ])

let test_mute_leader_replaced_quorum_selection () =
  let c = Xcluster.create (base_config ~mode:Replica.Quorum_selection ~timeout:(ms 20) ()) in
  Xcluster.set_fault c 0 Replica.Mute;
  let r = Xcluster.submit c ~resubmit_every:(ms 100) "survive-qs" in
  Xcluster.run ~until:(ms 3000) c;
  check_bool "committed despite mute leader" true (Xcluster.is_committed c r);
  check_bool "consistency" true (Xcluster.consistent c ~correct:[ 1; 2; 3; 4 ]);
  (* The quorum selector at a correct replica excludes the mute leader. *)
  (match Replica.quorum_selector (Xcluster.replica c 1) with
   | Some qs ->
     check_bool "final quorum excludes p1" false
       (List.mem 0 (Qs_core.Quorum_select.last_quorum qs))
   | None -> Alcotest.fail "no quorum selector in QS mode")

let test_equivocating_leader_detected () =
  let c = Xcluster.create (base_config ~timeout:(ms 50) ()) in
  Xcluster.set_fault c 0 (Replica.Equivocate 1);
  let r = Xcluster.submit c ~resubmit_every:(ms 150) "equivocate-me" in
  Xcluster.run ~until:(ms 3000) c;
  (* Some correct replica detected the leader's equivocation. *)
  let detected_by_someone =
    List.exists (fun p -> List.mem 0 (Replica.detections (Xcluster.replica c p))) [ 1; 2; 3; 4 ]
  in
  check_bool "equivocation detected" true detected_by_someone;
  check_bool "view advanced" true (Xcluster.max_view c > 0);
  check_bool "safety held" true (Xcluster.consistent c ~correct:[ 1; 2; 3; 4 ]);
  check_bool "request still committed" true (Xcluster.is_committed c r)

let test_committed_state_survives_view_change () =
  let c = Xcluster.create (base_config ~timeout:(ms 20) ()) in
  let r1 = Xcluster.submit c "before" in
  Xcluster.run c;
  check_bool "first committed" true (Xcluster.is_committed c r1);
  (* Now the leader goes mute; a later request must land after r1. *)
  Xcluster.set_fault c 0 Replica.Mute;
  let r2 = Xcluster.submit c ~resubmit_every:(ms 100) "after" in
  Xcluster.run ~until:(ms 3000) c;
  check_bool "second committed" true (Xcluster.is_committed c r2);
  check_bool "consistent" true (Xcluster.consistent c ~correct:[ 1; 2; 3; 4 ]);
  (* Every correct replica that executed r2 executed r1 first. *)
  List.iter
    (fun p ->
      let history = List.map (fun r -> r.Xmsg.op) (Replica.executed (Xcluster.replica c p)) in
      if List.mem "after" history then
        check_bool "order preserved" true (List.hd history = "before"))
    [ 1; 2; 3; 4 ]

let test_xft_minimal_n3 () =
  (* XFT's headline: n = 2f+1 = 3 with f = 1. *)
  let c = Xcluster.create (base_config ~n:3 ~f:1 ~timeout:(ms 20) ()) in
  let r = Xcluster.submit c "xft" in
  Xcluster.run c;
  check_bool "commits with 2f+1 replicas" true (Xcluster.is_committed c r);
  check_ilist "group of f+1 executed" [ 0; 1 ] (Xcluster.executed_by c r)

let test_mute_follower_view_changes () =
  (* A mute group member (not the leader) also forces a view change: the
     leader's COMMIT expectations time out. *)
  let c = Xcluster.create (base_config ~timeout:(ms 20) ()) in
  Xcluster.set_fault c 1 Replica.Mute;
  let r = Xcluster.submit c ~resubmit_every:(ms 100) "follower-mute" in
  Xcluster.run ~until:(ms 3000) c;
  check_bool "committed" true (Xcluster.is_committed c r);
  check_bool "moved to a group without p2" false
    (List.mem 1 (Replica.group (Xcluster.replica c 0)))

let test_enumeration_all_groups_distinct () =
  let total = Enumeration.count ~n:5 ~q:3 in
  let groups = List.init total (fun v -> Enumeration.group ~n:5 ~q:3 ~view:v) in
  check_int "all distinct within a cycle" total
    (List.length (List.sort_uniq compare groups))

let test_duplicate_submission_dedupe () =
  (* The same (client, rid) handed to the leader twice must occupy one
     slot. *)
  let c = Xcluster.create (base_config ()) in
  let request = { Xmsg.client = 5; rid = 42; op = "once" } in
  Replica.submit (Xcluster.replica c 0) request;
  Replica.submit (Xcluster.replica c 0) request;
  Xcluster.run c;
  let history = Replica.executed (Xcluster.replica c 1) in
  check_int "one execution" 1 (List.length history)

let test_passive_replicas_execute_nothing () =
  let c = Xcluster.create (base_config ()) in
  let r = Xcluster.submit c "op" in
  Xcluster.run c;
  check_bool "outsiders did not execute" true
    ((not (List.mem 3 (Xcluster.executed_by c r))) && not (List.mem 4 (Xcluster.executed_by c r)));
  check_int "outsider log empty" 0 (List.length (Replica.executed (Xcluster.replica c 4)))

let test_qs_mode_link_omission_recovers () =
  (* Not a mute replica — a single bad link. Quorum selection separates the
     pair and the request commits. *)
  let c = Xcluster.create (base_config ~mode:Replica.Quorum_selection ~timeout:(ms 20) ()) in
  Xcluster.omit_link c ~src:0 ~dst:1;
  Xcluster.omit_link c ~src:1 ~dst:0;
  let r = Xcluster.submit c ~resubmit_every:(ms 100) "bad-link" in
  Xcluster.run ~until:(ms 4000) c;
  check_bool "committed" true (Xcluster.is_committed c r);
  (match Replica.quorum_selector (Xcluster.replica c 2) with
   | Some qs ->
     let quorum = Qs_core.Quorum_select.last_quorum qs in
     check_bool "pair separated" false (List.mem 0 quorum && List.mem 1 quorum)
   | None -> Alcotest.fail "no selector");
  check_bool "consistent" true (Xcluster.consistent c ~correct:[ 0; 1; 2; 3; 4 ])

let test_view_change_expectations_drive_progress () =
  (* A mute replica inside the NEW group stalls the view change itself; the
     leader's VIEW-CHANGE expectations must push past it. *)
  let c = Xcluster.create (base_config ~timeout:(ms 20) ()) in
  Xcluster.set_fault c 1 Replica.Mute;
  Xcluster.set_fault c 3 Replica.Mute;
  (* f=2 mute replicas: several candidate groups contain one of them. *)
  let r = Xcluster.submit c ~resubmit_every:(ms 100) "push-through" in
  Xcluster.run ~until:(ms 8000) c;
  check_bool "committed despite two mutes" true (Xcluster.is_committed c r);
  let grp = Replica.group (Xcluster.replica c 0) in
  check_bool "final group avoids both mutes" true
    ((not (List.mem 1 grp)) && not (List.mem 3 grp))

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_safety_random_mute_faults =
  QCheck.Test.make ~name:"prefix consistency under random mute faults" ~count:25
    QCheck.(pair (int_range 1 1000) (int_range 0 4))
    (fun (seed, faulty) ->
      let c =
        Xcluster.create ~seed:(Int64.of_int seed) (base_config ~timeout:(ms 20) ())
      in
      Xcluster.set_fault c faulty Replica.Mute;
      for i = 0 to 4 do
        ignore (Xcluster.submit c ~resubmit_every:(ms 100) (Printf.sprintf "op%d" i))
      done;
      Xcluster.run ~until:(ms 4000) c;
      let correct = List.filter (fun p -> p <> faulty) [ 0; 1; 2; 3; 4 ] in
      Xcluster.consistent c ~correct)

let prop_safety_random_link_omissions =
  QCheck.Test.make ~name:"prefix consistency under random link omissions" ~count:25
    QCheck.(pair (int_range 1 1000) (list_of_size (QCheck.Gen.int_range 0 4) (pair (int_bound 4) (int_bound 4))))
    (fun (seed, links) ->
      let c =
        Xcluster.create ~seed:(Int64.of_int seed) (base_config ~timeout:(ms 20) ())
      in
      List.iter (fun (s, d) -> if s <> d then Xcluster.omit_link c ~src:s ~dst:d) links;
      for i = 0 to 3 do
        ignore (Xcluster.submit c ~resubmit_every:(ms 100) (Printf.sprintf "op%d" i))
      done;
      Xcluster.run ~until:(ms 4000) c;
      (* All replicas are correct processes here (the network omits); prefix
         consistency must hold for everyone. *)
      Xcluster.consistent c ~correct:[ 0; 1; 2; 3; 4 ])

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_safety_random_mute_faults; prop_safety_random_link_omissions ]

let () =
  Alcotest.run "xpaxos"
    [
      ( "enumeration",
        [
          Alcotest.test_case "count" `Quick test_enumeration_count;
          Alcotest.test_case "groups" `Quick test_enumeration_groups;
          Alcotest.test_case "view_for" `Quick test_enumeration_view_for;
          Alcotest.test_case "groups distinct" `Quick test_enumeration_all_groups_distinct;
        ] );
      ( "xlog",
        [
          Alcotest.test_case "basics" `Quick test_xlog_basics;
          Alcotest.test_case "prefix stops at gap" `Quick test_xlog_executed_prefix_stops_at_gap;
          Alcotest.test_case "to_entries" `Quick test_xlog_to_entries;
          Alcotest.test_case "changed_since" `Quick test_xlog_changed_since;
        ] );
      ("xmsg", [ Alcotest.test_case "sign/verify" `Quick test_xmsg_sign_verify ]);
      ( "normal-case",
        [
          Alcotest.test_case "commits" `Quick test_normal_case_commits;
          Alcotest.test_case "ordering" `Quick test_normal_case_ordering;
          Alcotest.test_case "message count (Fig 2)" `Quick test_normal_case_message_count;
          Alcotest.test_case "no false suspicions" `Quick test_no_false_suspicions_in_happy_path;
          Alcotest.test_case "commit before prepare (Fig 3)" `Quick test_fig3_commit_before_prepare;
          Alcotest.test_case "xft minimal n=3" `Quick test_xft_minimal_n3;
        ] );
      ( "failures",
        [
          Alcotest.test_case "link omission suspected" `Quick test_leader_omission_on_one_link_suspected;
          Alcotest.test_case "mute leader (enumeration)" `Quick test_mute_leader_replaced_enumeration;
          Alcotest.test_case "mute leader (quorum selection)" `Quick
            test_mute_leader_replaced_quorum_selection;
          Alcotest.test_case "equivocation detected" `Quick test_equivocating_leader_detected;
          Alcotest.test_case "state survives view change" `Quick test_committed_state_survives_view_change;
          Alcotest.test_case "mute follower" `Quick test_mute_follower_view_changes;
          Alcotest.test_case "duplicate submission" `Quick test_duplicate_submission_dedupe;
          Alcotest.test_case "passive replicas idle" `Quick test_passive_replicas_execute_nothing;
          Alcotest.test_case "QS mode bad link" `Quick test_qs_mode_link_omission_recovers;
          Alcotest.test_case "two mutes pushed through" `Quick
            test_view_change_expectations_drive_progress;
        ] );
      ("properties", qsuite);
    ]
