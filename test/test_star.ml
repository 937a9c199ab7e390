(* Star-topology SMR tests: the live Follower Selection stack. *)

open Qs_star
module Stime = Qs_sim.Stime
module Timeout = Qs_fd.Timeout
module Detector = Qs_fd.Detector
module Fsel = Qs_follower.Follower_select

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_ilist = Alcotest.(check (list int))

let ms = Stime.of_ms

let config ?(n = 7) ?(f = 2) ?(timeout = ms 30) () =
  {
    Star_node.n;
    f;
    initial_timeout = timeout;
    timeout_strategy = Timeout.Exponential { factor = 2.0; max = ms 2000 };
  }

(* ------------------------------------------------------------------ *)
(* Messages *)

let test_msg_roundtrip () =
  let auth = Qs_crypto.Auth.create 4 in
  let req = { Star_msg.client = 0; rid = 1; op = "x" } in
  let lsig = Star_msg.sign_lead auth ~leader:0 ~slot:3 ~qepoch:1 req in
  let lead = { Star_msg.slot = 3; qepoch = 1; request = req; lsig } in
  check_bool "lead binding verifies" true (Star_msg.verify_lead auth ~leader:0 lead);
  check_bool "tampered epoch rejected" false
    (Star_msg.verify_lead auth ~leader:0 { lead with Star_msg.qepoch = 2 });
  let m = Star_msg.seal auth ~sender:2 (Star_msg.Lead lead) in
  check_bool "envelope verifies" true (Star_msg.verify auth m)

(* ------------------------------------------------------------------ *)
(* Happy path *)

let test_star_commits () =
  let c = Star_cluster.create (config ()) in
  let r = Star_cluster.submit c "write" in
  Star_cluster.run c;
  check_bool "committed" true (Star_cluster.is_committed c r);
  check_ilist "whole quorum executed" [ 0; 1; 2; 3; 4 ] (Star_cluster.executed_by c r)

let test_star_message_complexity () =
  (* LEAD + ACK + APPLY: 3(q-1) per request. *)
  let c = Star_cluster.create (config ()) in
  let _ = Star_cluster.submit c "op" in
  Star_cluster.run c;
  let q = 5 in
  check_int "3(q-1)" (3 * (q - 1)) (Star_cluster.message_count c)

let test_star_ordering () =
  let c = Star_cluster.create (config ()) in
  let _ = Star_cluster.submit c "a" in
  let _ = Star_cluster.submit c "b" in
  Star_cluster.run c;
  let log p =
    List.map (fun r -> r.Star_msg.op) (Star_node.executed (Star_cluster.replica c p))
  in
  List.iter
    (fun p -> Alcotest.(check (list string)) "same order" (log 0) (log p))
    [ 1; 2; 3; 4 ]

let test_no_false_suspicions_happy () =
  let c = Star_cluster.create (config ()) in
  for i = 0 to 5 do
    ignore (Star_cluster.submit c (Printf.sprintf "op%d" i))
  done;
  Star_cluster.run c;
  for p = 0 to 6 do
    check_ilist
      (Printf.sprintf "p%d suspects nobody" (p + 1))
      []
      (Detector.suspected (Star_node.detector (Star_cluster.replica c p)))
  done;
  check_int "no reconfiguration" 0 (Star_cluster.max_quorum_epoch c)

(* ------------------------------------------------------------------ *)
(* Failures: live Algorithm 2 *)

let test_crashed_leader_replaced_live () =
  (* The initial leader p1 is mute. Followers' LEAD expectations fire, the
     suspicion gossips, the maximal line subgraph moves the leadership, the
     new leader's FOLLOWERS message is expected and delivered — all on the
     asynchronous network. *)
  let c = Star_cluster.create (config ~timeout:(ms 20) ()) in
  Star_cluster.set_fault c 0 Star_node.Mute;
  let r = Star_cluster.submit c ~resubmit_every:(ms 100) "survive" in
  Star_cluster.run ~until:(ms 6000) c;
  check_bool "committed under a new leader" true (Star_cluster.is_committed c r);
  let node1 = Star_cluster.replica c 1 in
  check_bool "leader moved" true (Star_node.leader node1 <> 0);
  check_bool "O(f)-ish reconfigurations" true (Star_cluster.max_quorum_epoch c <= 6 * 2 + 2)

let test_crashed_follower_excluded_live () =
  let c = Star_cluster.create (config ~timeout:(ms 20) ()) in
  Star_cluster.set_fault c 3 Star_node.Mute;
  let r = Star_cluster.submit c ~resubmit_every:(ms 100) "follower-down" in
  Star_cluster.run ~until:(ms 6000) c;
  check_bool "committed" true (Star_cluster.is_committed c r);
  check_bool "mute follower out of the quorum" false
    (List.mem 3 (Star_node.quorum (Star_cluster.replica c 1)))

let test_leader_follower_link_separates_pair () =
  (* The leader omits messages to one follower only. *)
  let c = Star_cluster.create (config ~timeout:(ms 20) ()) in
  Star_cluster.set_fault c 0 (Star_node.Omit_to [ 2 ]);
  let r = Star_cluster.submit c ~resubmit_every:(ms 100) "one-link" in
  Star_cluster.run ~until:(ms 6000) c;
  check_bool "committed" true (Star_cluster.is_committed c r);
  let node1 = Star_cluster.replica c 1 in
  let l = Star_node.leader node1 and q = Star_node.quorum node1 in
  check_bool "leader-victim pair separated" false (l = 0 && List.mem 2 q)

let test_follower_selection_state_is_live () =
  (* The embedded Algorithm 2 instance is consistent with the node's view. *)
  let c = Star_cluster.create (config ~timeout:(ms 20) ()) in
  Star_cluster.set_fault c 0 Star_node.Mute;
  let r = Star_cluster.submit c ~resubmit_every:(ms 100) "peek" in
  Star_cluster.run ~until:(ms 6000) c;
  check_bool "committed" true (Star_cluster.is_committed c r);
  let node2 = Star_cluster.replica c 2 in
  let sel = Star_node.selector node2 in
  check_int "selector leader = node leader" (Star_node.leader node2) (Fsel.leader sel);
  check_ilist "selector quorum = node quorum" (Star_node.quorum node2) (Fsel.last_quorum sel)

let test_exactly_once_execution () =
  let c = Star_cluster.create (config ~timeout:(ms 20) ()) in
  Star_cluster.set_fault c 0 Star_node.Mute;
  for i = 0 to 3 do
    ignore (Star_cluster.submit c ~resubmit_every:(ms 80) (Printf.sprintf "op%d" i))
  done;
  Star_cluster.run ~until:(ms 6000) c;
  List.iter
    (fun p ->
      let ids =
        List.map
          (fun r -> (r.Star_msg.client, r.Star_msg.rid))
          (Star_node.executed (Star_cluster.replica c p))
      in
      check_int
        (Printf.sprintf "p%d no duplicates" (p + 1))
        (List.length ids)
        (List.length (List.sort_uniq compare ids)))
    [ 1; 2; 3; 4; 5; 6 ]

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_star_single_fault_recovery =
  QCheck.Test.make ~name:"star recovers from any single mute process" ~count:15
    QCheck.(pair (int_range 1 300) (int_bound 6))
    (fun (seed, faulty) ->
      let c =
        Star_cluster.create ~seed:(Int64.of_int seed) (config ~f:2 ~timeout:(ms 20) ())
      in
      Star_cluster.set_fault c faulty Star_node.Mute;
      let r = Star_cluster.submit c ~resubmit_every:(ms 100) "survive" in
      Star_cluster.run ~until:(ms 8000) c;
      Star_cluster.is_committed c r)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_star_single_fault_recovery ]

let () =
  Alcotest.run "star"
    [
      ("messages", [ Alcotest.test_case "roundtrip" `Quick test_msg_roundtrip ]);
      ( "happy-path",
        [
          Alcotest.test_case "commits" `Quick test_star_commits;
          Alcotest.test_case "3(q-1) messages" `Quick test_star_message_complexity;
          Alcotest.test_case "identical order" `Quick test_star_ordering;
          Alcotest.test_case "no false suspicions" `Quick test_no_false_suspicions_happy;
        ] );
      ( "failures",
        [
          Alcotest.test_case "crashed leader replaced (live Alg 2)" `Quick
            test_crashed_leader_replaced_live;
          Alcotest.test_case "crashed follower excluded" `Quick test_crashed_follower_excluded_live;
          Alcotest.test_case "leader-follower link separated" `Quick
            test_leader_follower_link_separates_pair;
          Alcotest.test_case "selector state live" `Quick test_follower_selection_state_is_live;
          Alcotest.test_case "exactly-once execution" `Quick test_exactly_once_execution;
        ] );
      ("properties", qsuite);
    ]
