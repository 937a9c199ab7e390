(* BChain-style chain replication tests: message pattern, precise blame for
   mid-chain omissions, quorum-selection-driven re-chaining. *)

open Qs_bchain
module Stime = Qs_sim.Stime
module Timeout = Qs_fd.Timeout
module Detector = Qs_fd.Detector

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_ilist = Alcotest.(check (list int))

let ms = Stime.of_ms

let config ?(n = 7) ?(f = 2) ?(timeout = ms 50) () =
  {
    Chain_node.n;
    f;
    initial_timeout = timeout;
    timeout_strategy = Timeout.Exponential { factor = 2.0; max = ms 2000 };
  }

(* ------------------------------------------------------------------ *)
(* Messages *)

let test_msg_roundtrip () =
  let auth = Qs_crypto.Auth.create 4 in
  let req = { Chain_msg.client = 0; rid = 1; op = "x" } in
  let hsig = Chain_msg.sign_head auth ~head:0 ~slot:3 ~cepoch:1 req in
  let fwd = { Chain_msg.slot = 3; cepoch = 1; request = req; hsig } in
  check_bool "head binding verifies" true (Chain_msg.verify_head auth ~head:0 fwd);
  check_bool "wrong head rejected" false (Chain_msg.verify_head auth ~head:1 fwd);
  check_bool "tampered slot rejected" false
    (Chain_msg.verify_head auth ~head:0 { fwd with Chain_msg.slot = 4 });
  let m = Chain_msg.seal auth ~sender:2 (Chain_msg.Forward fwd) in
  check_bool "envelope verifies" true (Chain_msg.verify auth m)

(* ------------------------------------------------------------------ *)
(* Happy path *)

let test_chain_commits () =
  let c = Chain_cluster.create (config ()) in
  let r = Chain_cluster.submit c "write" in
  Chain_cluster.run c;
  check_bool "committed along the chain" true (Chain_cluster.is_committed c r);
  check_ilist "all chain members executed" [ 0; 1; 2; 3; 4 ] (Chain_cluster.executed_by c r)

let test_chain_message_complexity () =
  (* One request on a chain of q members: (q-1) forwards + (q-1) acks. *)
  let c = Chain_cluster.create (config ()) in
  let _ = Chain_cluster.submit c "op" in
  Chain_cluster.run c;
  let q = 5 in
  check_int "2(q-1) messages" (2 * (q - 1)) (Chain_cluster.message_count c)

let test_chain_ordering_consistent () =
  let c = Chain_cluster.create (config ()) in
  let _ = Chain_cluster.submit c "a" in
  let _ = Chain_cluster.submit c "b" in
  let _ = Chain_cluster.submit c "c" in
  Chain_cluster.run c;
  let log p = List.map (fun r -> r.Chain_msg.op) (Chain_node.executed (Chain_cluster.replica c p)) in
  let reference = log 0 in
  check_int "three ops" 3 (List.length reference);
  List.iter (fun p -> Alcotest.(check (list string)) "same log" reference (log p)) [ 1; 2; 3; 4 ]

let test_dedup_on_resubmission () =
  let c = Chain_cluster.create (config ()) in
  let r = Chain_cluster.submit c ~resubmit_every:(ms 30) "only-once" in
  Chain_cluster.run ~until:(ms 500) c;
  check_bool "committed" true (Chain_cluster.is_committed c r);
  let log = Chain_node.executed (Chain_cluster.replica c 1) in
  check_int "executed exactly once despite resubmissions" 1 (List.length log)

(* ------------------------------------------------------------------ *)
(* Failure handling *)

let test_midchain_omission_separates_the_pair () =
  (* p3 (id 2) drops everything to its successor p4 (id 3). Only the two
     link endpoints can know anything: a single omission cannot identify
     which endpoint is faulty (the asymmetry Theorem 4 exploits), so the
     system's obligation is to separate the PAIR — and to implicate nobody
     else. *)
  let c = Chain_cluster.create (config ~timeout:(ms 20) ()) in
  Chain_cluster.set_fault c 2 (Chain_node.Omit_to [ 3 ]);
  let r = Chain_cluster.submit c ~resubmit_every:(ms 100) "blame" in
  Chain_cluster.run ~until:(ms 5000) c;
  check_bool "eventually committed on a re-formed chain" true (Chain_cluster.is_committed c r);
  let final_chain = Chain_node.chain (Chain_cluster.replica c 1) in
  check_bool "suspected pair separated" false
    (List.mem 2 final_chain && List.mem 3 final_chain);
  (* Position-scaled timeouts keep the blame local: the upstream nodes never
     raised any suspicion. *)
  List.iter
    (fun p ->
      check_int
        (Printf.sprintf "no suspicion raised at p%d" (p + 1))
        0
        (Detector.raised_total (Chain_node.detector (Chain_cluster.replica c p))))
    [ 0; 1 ]

let test_mute_head_replaced () =
  let c = Chain_cluster.create (config ~timeout:(ms 20) ()) in
  Chain_cluster.set_fault c 0 Chain_node.Mute;
  let r = Chain_cluster.submit c ~resubmit_every:(ms 100) "new-head" in
  Chain_cluster.run ~until:(ms 5000) c;
  check_bool "committed under a new head" true (Chain_cluster.is_committed c r);
  let node1 = Chain_cluster.replica c 1 in
  check_bool "head changed" true (Chain_node.head node1 <> 0);
  check_bool "chain epoch advanced" true (Chain_node.chain_epoch node1 >= 1)

let test_mute_tail_replaced () =
  let c = Chain_cluster.create (config ~timeout:(ms 20) ()) in
  (* Tail of the initial chain {0..4} is p5 (id 4). *)
  Chain_cluster.set_fault c 4 Chain_node.Mute;
  let r = Chain_cluster.submit c ~resubmit_every:(ms 100) "new-tail" in
  Chain_cluster.run ~until:(ms 5000) c;
  check_bool "committed without the mute tail" true (Chain_cluster.is_committed c r);
  check_bool "tail excluded" false (List.mem 4 (Chain_node.chain (Chain_cluster.replica c 1)))

let test_equivocating_head_detected () =
  (* Two different requests bound to the same slot in the same epoch is a
     provable commission failure of the head. We inject the second binding
     directly at a member. *)
  let c = Chain_cluster.create (config ~timeout:(ms 500) ()) in
  let r = Chain_cluster.submit c "honest" in
  Chain_cluster.run ~until:(ms 10) c;
  let auth = Qs_crypto.Auth.create 7 in
  let evil_req = { Chain_msg.client = 9; rid = 9; op = "evil" } in
  let fwd =
    {
      Chain_msg.slot = 0;
      cepoch = 0;
      request = evil_req;
      hsig = Chain_msg.sign_head auth ~head:0 ~slot:0 ~cepoch:0 evil_req;
    }
  in
  (* Deliver as if from p1 (the predecessor of p2 on the chain). *)
  let node1 = Chain_cluster.replica c 1 in
  Chain_node.receive node1 ~src:0 (Chain_msg.seal auth ~sender:0 (Chain_msg.Forward fwd));
  Chain_cluster.run ~until:(ms 20) c;
  check_bool "double binding detected" true
    (Detector.is_detected (Chain_node.detector node1) 0);
  (* The honest request had already executed on every member of the original
     chain before the detection re-chained the system. *)
  check_ilist "honest request executed on the original chain" [ 0; 1; 2; 3; 4 ]
    (Chain_cluster.executed_by c r)

let test_non_chain_members_passive () =
  let c = Chain_cluster.create (config ()) in
  let r = Chain_cluster.submit c "op" in
  Chain_cluster.run c;
  (* Processes 5 and 6 are outside the quorum: they execute nothing. *)
  check_bool "outsiders passive" true
    (not (List.mem 5 (Chain_cluster.executed_by c r))
    && not (List.mem 6 (Chain_cluster.executed_by c r)))

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_single_fault_recovery =
  QCheck.Test.make ~name:"chain recovers from any single mute member" ~count:20
    QCheck.(pair (int_range 1 500) (int_bound 4))
    (fun (seed, faulty) ->
      let c = Chain_cluster.create ~seed:(Int64.of_int seed) (config ~f:2 ~timeout:(ms 20) ()) in
      Chain_cluster.set_fault c faulty Chain_node.Mute;
      let r = Chain_cluster.submit c ~resubmit_every:(ms 100) "survive" in
      Chain_cluster.run ~until:(ms 8000) c;
      Chain_cluster.is_committed c r
      && not (List.mem faulty (Chain_node.chain (Chain_cluster.replica c ((faulty + 1) mod 7)))))

let prop_no_duplicate_execution =
  QCheck.Test.make ~name:"exactly-once execution per node" ~count:20
    QCheck.(int_range 1 500)
    (fun seed ->
      let c = Chain_cluster.create ~seed:(Int64.of_int seed) (config ~timeout:(ms 20) ()) in
      for i = 0 to 3 do
        ignore (Chain_cluster.submit c ~resubmit_every:(ms 40) (Printf.sprintf "op%d" i))
      done;
      Chain_cluster.run ~until:(ms 3000) c;
      List.for_all
        (fun p ->
          let ops =
            List.map (fun r -> (r.Chain_msg.client, r.Chain_msg.rid))
              (Chain_node.executed (Chain_cluster.replica c p))
          in
          List.length ops = List.length (List.sort_uniq compare ops))
        [ 0; 1; 2; 3; 4; 5; 6 ])

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ prop_single_fault_recovery; prop_no_duplicate_execution ]

let () =
  Alcotest.run "bchain"
    [
      ("messages", [ Alcotest.test_case "roundtrip" `Quick test_msg_roundtrip ]);
      ( "happy-path",
        [
          Alcotest.test_case "commits along chain" `Quick test_chain_commits;
          Alcotest.test_case "2(q-1) messages" `Quick test_chain_message_complexity;
          Alcotest.test_case "identical logs" `Quick test_chain_ordering_consistent;
          Alcotest.test_case "dedup on resubmission" `Quick test_dedup_on_resubmission;
          Alcotest.test_case "outsiders passive" `Quick test_non_chain_members_passive;
        ] );
      ( "failures",
        [
          Alcotest.test_case "mid-chain omission separates the pair" `Quick
            test_midchain_omission_separates_the_pair;
          Alcotest.test_case "mute head replaced" `Quick test_mute_head_replaced;
          Alcotest.test_case "mute tail replaced" `Quick test_mute_tail_replaced;
          Alcotest.test_case "equivocating head detected" `Quick test_equivocating_head_detected;
        ] );
      ("properties", qsuite);
    ]
