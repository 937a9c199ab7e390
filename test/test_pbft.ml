(* PBFT substrate tests: classic full participation (masking) vs the
   paper's selected active quorum (reacting), message patterns, primary
   rotation, and safety under faults. *)

open Qs_pbft
module Stime = Qs_sim.Stime
module Timeout = Qs_fd.Timeout
module Detector = Qs_fd.Detector

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ms = Stime.of_ms

let config ?(participation = Preplica.Full) ?(f = 1) ?(timeout = ms 30) () =
  {
    Preplica.n = (3 * f) + 1;
    f;
    participation;
    initial_timeout = timeout;
    timeout_strategy = Timeout.Exponential { factor = 2.0; max = ms 2000 };
  }

(* ------------------------------------------------------------------ *)
(* Messages *)

let test_pmsg_roundtrip () =
  let auth = Qs_crypto.Auth.create 4 in
  let req = { Pmsg.client = 0; rid = 0; op = "x" } in
  let spp = Pmsg.sign_pre_prepare auth ~primary:0 { Pmsg.view = 0; slot = 0; request = req } in
  check_bool "pre-prepare verifies" true (Pmsg.verify_pre_prepare auth ~primary:0 spp);
  check_bool "wrong primary rejected" false (Pmsg.verify_pre_prepare auth ~primary:1 spp);
  let m = Pmsg.seal auth ~sender:2 (Pmsg.Pre_prepare spp) in
  check_bool "envelope verifies" true (Pmsg.verify auth m);
  check_bool "digest differs per request" true
    (Pmsg.digest req <> Pmsg.digest { req with Pmsg.op = "y" })

(* ------------------------------------------------------------------ *)
(* Full participation: classic PBFT *)

let test_full_happy_path () =
  let c = Pcluster.create (config ~f:1 ()) in
  let r = Pcluster.submit c "op" in
  Pcluster.run c;
  check_bool "committed" true (Pcluster.is_committed c r);
  Alcotest.(check (list int)) "all four executed" [ 0; 1; 2; 3 ] (Pcluster.executed_by c r);
  check_int "no view change" 0 (Pcluster.max_view c)

let test_full_message_count () =
  (* Classic pattern per request: (n-1) pre-prepares + 3f prepares to (n-1)
     peers each + n commits to (n-1) peers each. *)
  let c = Pcluster.create (config ~f:1 ()) in
  let _ = Pcluster.submit c "op" in
  Pcluster.run c;
  let n = 4 in
  let expected = (n - 1) + ((n - 1) * (n - 1)) + (n * (n - 1)) in
  check_int "full all-to-all count" expected (Pcluster.message_count c)

let test_full_masks_one_mute_replica () =
  (* PBFT's defining property: one silent backup changes nothing — no view
     change, request still commits (masking). *)
  let c = Pcluster.create (config ~f:1 ()) in
  Pcluster.set_fault c 3 Preplica.Mute;
  let r = Pcluster.submit c "masked" in
  Pcluster.run c;
  check_bool "committed without p4" true (Pcluster.is_committed c r);
  check_int "zero view changes (masked, not reacted)" 0 (Pcluster.max_view c)

let test_full_mute_primary_rotation () =
  let c = Pcluster.create (config ~f:1 ()) in
  Pcluster.set_fault c 0 Preplica.Mute;
  let r = Pcluster.submit c ~resubmit_every:(ms 100) "rotate" in
  Pcluster.run ~until:(ms 4000) c;
  check_bool "committed under new primary" true (Pcluster.is_committed c r);
  check_bool "view rotated" true (Pcluster.max_view c >= 1);
  check_int "new primary is view mod n" (Pcluster.max_view c mod 4)
    (Preplica.primary (Pcluster.replica c 1))

let test_full_consistency_under_fault () =
  let c = Pcluster.create (config ~f:1 ()) in
  Pcluster.set_fault c 2 Preplica.Mute;
  for i = 0 to 3 do
    ignore (Pcluster.submit c ~resubmit_every:(ms 100) (Printf.sprintf "op%d" i))
  done;
  Pcluster.run ~until:(ms 4000) c;
  check_bool "prefix consistent" true (Pcluster.consistent c ~correct:[ 0; 1; 3 ])

(* ------------------------------------------------------------------ *)
(* Selected participation: the paper's proposal *)

let test_selected_happy_path () =
  let c = Pcluster.create (config ~participation:Preplica.Selected ~f:1 ()) in
  let r = Pcluster.submit c "op" in
  Pcluster.run c;
  check_bool "committed" true (Pcluster.is_committed c r);
  Alcotest.(check (list int)) "active quorum executed" [ 0; 1; 2 ] (Pcluster.executed_by c r)

let test_selected_message_count () =
  (* Active quorum q = 2f+1: (q-1) pre-prepares + (q-1)^2 prepares +
     q(q-1) commits. *)
  let c = Pcluster.create (config ~participation:Preplica.Selected ~f:1 ()) in
  let _ = Pcluster.submit c "op" in
  Pcluster.run c;
  let q = 3 in
  let expected = (q - 1) + ((q - 1) * (q - 1)) + (q * (q - 1)) in
  check_int "selected count" expected (Pcluster.message_count c)

let test_selected_fewer_messages_than_full () =
  let count participation =
    let c = Pcluster.create (config ~participation ~f:2 ()) in
    let _ = Pcluster.submit c "op" in
    Pcluster.run c;
    Pcluster.message_count c
  in
  let full = count Preplica.Full and selected = count Preplica.Selected in
  check_bool "selected cheaper" true (selected < full);
  (* The paper's ballpark: roughly (q/n)^2 of the quadratic traffic. *)
  check_bool "at least a third saved" true
    (float_of_int selected /. float_of_int full < 2.0 /. 3.0)

let test_selected_reacts_to_mute_member () =
  (* No masking in selected mode: a mute active member stalls the round,
     expectations fire, quorum selection installs a new active set. *)
  let c = Pcluster.create (config ~participation:Preplica.Selected ~f:1 ~timeout:(ms 20) ()) in
  Pcluster.set_fault c 1 Preplica.Mute;
  let r = Pcluster.submit c ~resubmit_every:(ms 100) "react" in
  Pcluster.run ~until:(ms 4000) c;
  check_bool "committed on new active set" true (Pcluster.is_committed c r);
  check_bool "reconfigured" true (Pcluster.max_view c >= 1);
  check_bool "mute member excluded" false
    (List.mem 1 (Preplica.participants (Pcluster.replica c 0)))

let test_selected_mute_primary_replaced () =
  let c = Pcluster.create (config ~participation:Preplica.Selected ~f:1 ~timeout:(ms 20) ()) in
  Pcluster.set_fault c 0 Preplica.Mute;
  let r = Pcluster.submit c ~resubmit_every:(ms 100) "primary" in
  Pcluster.run ~until:(ms 4000) c;
  check_bool "committed" true (Pcluster.is_committed c r);
  check_bool "primary changed" true (Preplica.primary (Pcluster.replica c 1) <> 0);
  (match Preplica.quorum_selector (Pcluster.replica c 1) with
   | Some qs ->
     check_bool "selector excluded the mute primary" false
       (List.mem 0 (Qs_core.Quorum_select.last_quorum qs))
   | None -> Alcotest.fail "selected mode must embed a selector")

let test_selected_passive_catch_up () =
  (* A passive replica pulled into the active set by reconfiguration learns
     committed state via the NEW-VIEW transfer. *)
  let c = Pcluster.create (config ~participation:Preplica.Selected ~f:1 ~timeout:(ms 20) ()) in
  let r1 = Pcluster.submit c "before" in
  Pcluster.run ~until:(ms 50) c;
  check_bool "first committed on {p1,p2,p3}" true (Pcluster.is_committed c r1);
  Pcluster.set_fault c 2 Preplica.Mute;
  let r2 = Pcluster.submit c ~resubmit_every:(ms 100) "after" in
  Pcluster.run ~until:(ms 4000) c;
  check_bool "second committed" true (Pcluster.is_committed c r2);
  (* p4 (id 3) joined the active set and must hold the full history. *)
  let history = List.map (fun r -> r.Pmsg.op) (Preplica.executed (Pcluster.replica c 3)) in
  check_bool "newcomer replayed the committed prefix" true (List.mem "before" history);
  check_bool "consistency across correct" true (Pcluster.consistent c ~correct:[ 0; 1; 3 ])

let test_equivocating_primary_detected_selected () =
  (* Inject a conflicting signed pre-prepare for an existing slot. *)
  let c = Pcluster.create (config ~participation:Preplica.Selected ~f:1 ~timeout:(ms 500) ()) in
  let r = Pcluster.submit c "honest" in
  Pcluster.run ~until:(ms 10) c;
  let auth = Qs_crypto.Auth.create 4 in
  let evil = { Pmsg.client = 8; rid = 8; op = "evil" } in
  let spp = Pmsg.sign_pre_prepare auth ~primary:0 { Pmsg.view = 0; slot = 0; request = evil } in
  let replica1 = Pcluster.replica c 1 in
  Preplica.receive replica1 ~src:0 (Pmsg.seal auth ~sender:0 (Pmsg.Pre_prepare spp));
  Pcluster.run ~until:(ms 20) c;
  check_bool "equivocation detected" true (Detector.is_detected (Preplica.detector replica1) 0);
  check_bool "honest request executed" true (List.mem 1 (Pcluster.executed_by c r))

let test_config_validation () =
  Alcotest.check_raises "n must be 3f+1" (Invalid_argument "Preplica.create: need n = 3f+1")
    (fun () ->
      ignore
        (Preplica.create
           {
             Preplica.n = 5;
             f = 1;
             participation = Preplica.Full;
             initial_timeout = ms 10;
             timeout_strategy = Timeout.Fixed;
           }
           ~me:0 ~auth:(Qs_crypto.Auth.create 5) ~sim:(Qs_sim.Sim.create ())
           ~net_send:(fun ~dst:_ _ -> ())
           ()))

let test_full_masks_two_mutes_f2 () =
  (* n = 7, f = 2: commit threshold 2f+1 = 5 of 7 — two silent backups are
     absorbed without any reaction. *)
  let c = Pcluster.create (config ~f:2 ()) in
  Pcluster.set_fault c 5 Preplica.Mute;
  Pcluster.set_fault c 6 Preplica.Mute;
  let r = Pcluster.submit c "masked-two" in
  Pcluster.run c;
  check_bool "committed" true (Pcluster.is_committed c r);
  check_int "no view change" 0 (Pcluster.max_view c)

let test_selected_link_omission_reacts () =
  (* A single bad link inside the active quorum: selected PBFT cannot mask
     it (it needs everyone), so expectations fire and the pair gets
     separated. *)
  let c = Pcluster.create (config ~participation:Preplica.Selected ~f:1 ~timeout:(ms 20) ()) in
  Pcluster.set_fault c 2 (Preplica.Omit_to [ 1 ]);
  let r = Pcluster.submit c ~resubmit_every:(ms 100) "bad-link" in
  Pcluster.run ~until:(ms 5000) c;
  check_bool "committed" true (Pcluster.is_committed c r);
  let active = Preplica.participants (Pcluster.replica c 0) in
  check_bool "pair separated" false (List.mem 1 active && List.mem 2 active)

let test_full_equivocation_detected () =
  let c = Pcluster.create (config ~f:1 ~timeout:(ms 500) ()) in
  let _ = Pcluster.submit c "honest" in
  Pcluster.run ~until:(ms 10) c;
  let auth = Qs_crypto.Auth.create 4 in
  let evil = { Pmsg.client = 7; rid = 7; op = "evil" } in
  let spp = Pmsg.sign_pre_prepare auth ~primary:0 { Pmsg.view = 0; slot = 0; request = evil } in
  let replica2 = Pcluster.replica c 2 in
  Preplica.receive replica2 ~src:0 (Pmsg.seal auth ~sender:0 (Pmsg.Pre_prepare spp));
  check_bool "full mode detects double binding" true
    (Detector.is_detected (Preplica.detector replica2) 0)

let test_digest_mismatch_votes_ignored () =
  (* Votes for a different request on the same slot must not count. *)
  let c = Pcluster.create (config ~f:1 ~timeout:(ms 500) ()) in
  let _ = Pcluster.submit c "real" in
  Pcluster.run ~until:(ms 5) c;
  let auth = Qs_crypto.Auth.create 4 in
  let fake_digest = Pmsg.digest { Pmsg.client = 9; rid = 9; op = "other" } in
  let replica1 = Pcluster.replica c 1 in
  (* A (Byzantine) replica 3 votes PREPARE with a mismatching digest. *)
  Preplica.receive replica1 ~src:3
    (Pmsg.seal auth ~sender:3 (Pmsg.Prepare { view = 0; slot = 0; pdigest = fake_digest }));
  Pcluster.run c;
  (* Progress is unaffected, and the bad vote never created a certificate
     for the fake request. *)
  check_bool "no fake execution" true
    (List.for_all (fun r -> r.Pmsg.op <> "other") (Preplica.executed replica1))

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_full_safety_random_mute =
  QCheck.Test.make ~name:"full PBFT: prefix consistency under a random mute replica" ~count:15
    QCheck.(pair (int_range 1 500) (int_bound 3))
    (fun (seed, faulty) ->
      let c = Pcluster.create ~seed:(Int64.of_int seed) (config ~f:1 ()) in
      Pcluster.set_fault c faulty Preplica.Mute;
      for i = 0 to 2 do
        ignore (Pcluster.submit c ~resubmit_every:(ms 100) (Printf.sprintf "op%d" i))
      done;
      Pcluster.run ~until:(ms 4000) c;
      let correct = List.filter (fun p -> p <> faulty) [ 0; 1; 2; 3 ] in
      Pcluster.consistent c ~correct)

let prop_selected_safety_random_mute =
  QCheck.Test.make ~name:"selected PBFT: prefix consistency under a random mute replica"
    ~count:15
    QCheck.(pair (int_range 1 500) (int_bound 3))
    (fun (seed, faulty) ->
      let c =
        Pcluster.create ~seed:(Int64.of_int seed)
          (config ~participation:Preplica.Selected ~f:1 ~timeout:(ms 20) ())
      in
      Pcluster.set_fault c faulty Preplica.Mute;
      for i = 0 to 2 do
        ignore (Pcluster.submit c ~resubmit_every:(ms 100) (Printf.sprintf "op%d" i))
      done;
      Pcluster.run ~until:(ms 5000) c;
      let correct = List.filter (fun p -> p <> faulty) [ 0; 1; 2; 3 ] in
      Pcluster.consistent c ~correct)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_full_safety_random_mute; prop_selected_safety_random_mute ]

let () =
  Alcotest.run "pbft"
    [
      ("messages", [ Alcotest.test_case "roundtrip" `Quick test_pmsg_roundtrip ]);
      ( "full",
        [
          Alcotest.test_case "happy path" `Quick test_full_happy_path;
          Alcotest.test_case "message count" `Quick test_full_message_count;
          Alcotest.test_case "masks one mute replica" `Quick test_full_masks_one_mute_replica;
          Alcotest.test_case "primary rotation" `Quick test_full_mute_primary_rotation;
          Alcotest.test_case "consistency under fault" `Quick test_full_consistency_under_fault;
          Alcotest.test_case "masks two mutes (f=2)" `Quick test_full_masks_two_mutes_f2;
          Alcotest.test_case "equivocation detected" `Quick test_full_equivocation_detected;
          Alcotest.test_case "digest mismatch ignored" `Quick test_digest_mismatch_votes_ignored;
        ] );
      ( "selected",
        [
          Alcotest.test_case "happy path" `Quick test_selected_happy_path;
          Alcotest.test_case "message count" `Quick test_selected_message_count;
          Alcotest.test_case "cheaper than full" `Quick test_selected_fewer_messages_than_full;
          Alcotest.test_case "reacts to mute member" `Quick test_selected_reacts_to_mute_member;
          Alcotest.test_case "mute primary replaced" `Quick test_selected_mute_primary_replaced;
          Alcotest.test_case "passive catch-up" `Quick test_selected_passive_catch_up;
          Alcotest.test_case "equivocation detected" `Quick
            test_equivocating_primary_detected_selected;
          Alcotest.test_case "link omission reacts" `Quick test_selected_link_omission_reacts;
          Alcotest.test_case "config validation" `Quick test_config_validation;
        ] );
      ("properties", qsuite);
    ]
