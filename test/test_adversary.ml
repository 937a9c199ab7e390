(* Adversary tests: the Theorem-4 lower-bound game (pure model + live
   replay) and the named XPaxos attack scenarios. *)

open Qs_adversary
module Stime = Qs_sim.Stime
module Timeout = Qs_fd.Timeout
module Replica = Qs_xpaxos.Replica
module Xcluster = Qs_xpaxos.Xcluster

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_ilist = Alcotest.(check (list int))

(* ------------------------------------------------------------------ *)
(* Theorem 4 pure game *)

let test_target_values () =
  check_int "f=1" 3 (Theorem4.target ~f:1);
  check_int "f=2" 6 (Theorem4.target ~f:2);
  check_int "f=3" 10 (Theorem4.target ~f:3);
  check_int "f=4" 15 (Theorem4.target ~f:4)

let test_default_setup () =
  let s = Theorem4.default_setup ~n:6 ~f:2 in
  check_ilist "faulty are low ids" [ 0; 1 ] s.Theorem4.faulty;
  check_bool "victims next" true (s.Theorem4.victims = (2, 3));
  Alcotest.check_raises "n too small" (Invalid_argument "Theorem4.default_setup: need n >= f + 2")
    (fun () -> ignore (Theorem4.default_setup ~n:3 ~f:2))

let test_quorum_after () =
  let s = Theorem4.default_setup ~n:4 ~f:1 in
  (match Theorem4.quorum_after s [] with
   | Some q -> check_ilist "initial default" [ 0; 1; 2 ] q
   | None -> Alcotest.fail "no quorum");
  match Theorem4.quorum_after s [ (0, 1) ] with
  | Some q -> check_ilist "avoids the pair" [ 0; 2; 3 ] q
  | None -> Alcotest.fail "no quorum"

let test_eligible_requires_faulty_endpoint () =
  let s = Theorem4.default_setup ~n:4 ~f:1 in
  (* Quorum {1,2,3} contains no faulty process: no eligible pairs. *)
  check_ilist "none" []
    (List.map fst (Theorem4.eligible s ~used:[] ~quorum:[ 1; 2; 3 ]));
  (* Quorum {0,1,2}: pairs (0,1) and (0,2), suspector is the correct one. *)
  let pairs = Theorem4.eligible s ~used:[] ~quorum:[ 0; 1; 2 ] in
  Alcotest.(check (list (pair int int))) "earned suspicions" [ (1, 0); (2, 0) ] pairs

let test_eligible_excludes_used () =
  let s = Theorem4.default_setup ~n:4 ~f:1 in
  let pairs = Theorem4.eligible s ~used:[ (0, 1) ] ~quorum:[ 0; 1; 2 ] in
  Alcotest.(check (list (pair int int))) "used pair dropped" [ (2, 0) ] pairs

let test_exhaustive_achieves_bound_f1 () =
  let s = Theorem4.default_setup ~n:4 ~f:1 in
  let game = Theorem4.exhaustive s in
  (* C(3,2) = 3 quorums including the initial default: 2 injections. *)
  check_int "injections" (Theorem4.target ~f:1 - 1) (List.length game.Theorem4.injections)

let test_exhaustive_achieves_bound_f2 () =
  let s = Theorem4.default_setup ~n:6 ~f:2 in
  let game = Theorem4.exhaustive s in
  check_int "injections" (Theorem4.target ~f:2 - 1) (List.length game.Theorem4.injections)

let test_exhaustive_achieves_bound_f3 () =
  let s = Theorem4.default_setup ~n:8 ~f:3 in
  let game = Theorem4.exhaustive s in
  check_int "injections" (Theorem4.target ~f:3 - 1) (List.length game.Theorem4.injections)

let test_exhaustive_guard () =
  Alcotest.check_raises "too many pairs"
    (Invalid_argument "Theorem4.exhaustive: too many pairs; use greedy for large f") (fun () ->
      ignore (Theorem4.exhaustive (Theorem4.default_setup ~n:14 ~f:6)))

let test_greedy_reasonable () =
  let s = Theorem4.default_setup ~n:6 ~f:2 in
  let game = Theorem4.greedy s in
  let len = List.length game.Theorem4.injections in
  check_bool "at least f+1 injections" true (len >= 3);
  check_bool "at most the bound" true (len <= Theorem4.target ~f:2 - 1)

let test_quorum_changes_every_injection () =
  let s = Theorem4.default_setup ~n:6 ~f:2 in
  let game = Theorem4.exhaustive s in
  let rec distinct_consecutive prev = function
    | [] -> true
    | q :: rest -> q <> prev && distinct_consecutive q rest
  in
  check_bool "each injection changes the quorum" true
    (distinct_consecutive [ 0; 1; 2; 3 ] game.Theorem4.quorums)

(* ------------------------------------------------------------------ *)
(* Replay on the live cluster *)

let test_replay_f1 () =
  let s = Theorem4.default_setup ~n:4 ~f:1 in
  let game = Theorem4.exhaustive s in
  let issued = Theorem4.replay s game in
  check_int "live cluster issues the predicted count" (List.length game.Theorem4.injections) issued

let test_replay_f2 () =
  let s = Theorem4.default_setup ~n:6 ~f:2 in
  let game = Theorem4.exhaustive s in
  let issued = Theorem4.replay s game in
  check_int "live == pure model" (Theorem4.target ~f:2 - 1) issued

let test_replay_f3 () =
  let s = Theorem4.default_setup ~n:8 ~f:3 in
  let game = Theorem4.exhaustive s in
  let issued = Theorem4.replay s game in
  check_int "live == pure model" (Theorem4.target ~f:3 - 1) issued

let test_upper_bound_respected () =
  (* Theorem 3 sanity on the adversarial runs: per-epoch issues stay within
     f(f+1); here the whole game runs in epoch 1. *)
  List.iter
    (fun (n, f) ->
      let s = Theorem4.default_setup ~n ~f in
      let game = Theorem4.exhaustive s in
      let issued = List.length game.Theorem4.injections in
      check_bool "<= f(f+1)" true (Qs_core.Spec.upper_bound_per_epoch ~f ~issued);
      check_bool "<= C(f+2,2)" true (Qs_core.Spec.conjectured_bound_per_epoch ~f ~issued))
    [ (4, 1); (6, 2); (8, 3) ]

(* ------------------------------------------------------------------ *)
(* Attack scenarios *)

let ms = Stime.of_ms

let base_config () =
  {
    Replica.n = 5;
    f = 2;
    mode = Replica.Enumeration;
    initial_timeout = ms 20;
    timeout_strategy = Timeout.Exponential { factor = 2.0; max = ms 2000 };
  }

let test_attack_mute () =
  let c = Xcluster.create (base_config ()) in
  Attack.apply c (Attack.Mute_replicas [ 0; 1 ]);
  let r = Xcluster.submit c ~resubmit_every:(ms 100) "mute-two" in
  Xcluster.run ~until:(ms 5000) c;
  check_bool "survives two mute replicas" true (Xcluster.is_committed c r);
  check_bool "consistent" true (Xcluster.consistent c ~correct:[ 2; 3; 4 ])

let test_attack_omit_links () =
  let c = Xcluster.create (base_config ()) in
  Attack.apply c (Attack.Omit_links [ (0, 1); (0, 2) ]);
  let r = Xcluster.submit c ~resubmit_every:(ms 100) "omit" in
  Xcluster.run ~until:(ms 5000) c;
  check_bool "survives link omissions" true (Xcluster.is_committed c r)

let test_attack_equivocate () =
  let c = Xcluster.create (base_config ()) in
  Attack.apply c (Attack.Equivocate { leader = 0; victim = 2 });
  let r = Xcluster.submit c ~resubmit_every:(ms 100) "equiv" in
  Xcluster.run ~until:(ms 5000) c;
  check_bool "detected by someone" true
    (List.exists (fun p -> List.mem 0 (Replica.detections (Xcluster.replica c p))) [ 1; 2; 3; 4 ]);
  check_bool "committed anyway" true (Xcluster.is_committed c r)

let test_attack_ramp_delay_defeats_fixed_timeout () =
  (* Increasing timing failure (Section II): with a FIXED timeout the
     delayed link keeps producing suspicions forever; with exponential
     backoff the timeout eventually outgrows... nothing, because the delay
     is unbounded — the faulty process is rightly suspected forever.
     Here we check the ramp produces repeated suspicions at the victim. *)
  let config = { (base_config ()) with Replica.timeout_strategy = Timeout.Fixed } in
  let c = Xcluster.create config in
  Attack.apply c (Attack.Ramp_delay { src = 0; dst = 1; step = ms 30; every = ms 50 });
  (* Let the ramp grow well past the fixed 20ms timeout, then submit. *)
  Xcluster.run ~until:(ms 400) c;
  ignore (Xcluster.submit c "late");
  Xcluster.run ~until:(ms 3000) c;
  let fd = Replica.detector (Xcluster.replica c 1) in
  check_bool "suspicions raised at delayed peer" true (Qs_fd.Detector.raised_total fd > 0)

let test_describe () =
  check_bool "describe mute" true (String.length (Attack.describe (Attack.Mute_replicas [ 1 ])) > 0);
  check_bool "describe ramp" true
    (String.length
       (Attack.describe (Attack.Ramp_delay { src = 0; dst = 1; step = 1; every = 1 }))
    > 0)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_exhaustive_never_exceeds_bound =
  QCheck.Test.make ~name:"exhaustive game never exceeds C(f+2,2)-1 injections" ~count:20
    QCheck.(pair (int_range 1 3) (int_range 0 3))
    (fun (f, extra) ->
      let n = (2 * f) + 2 + extra in
      let s = Theorem4.default_setup ~n ~f in
      let game = Theorem4.exhaustive s in
      List.length game.Theorem4.injections <= Theorem4.target ~f - 1)

let prop_greedy_replay_consistent =
  QCheck.Test.make ~name:"greedy games replay exactly on the live cluster" ~count:15
    QCheck.(pair (int_range 1 3) (int_range 0 2))
    (fun (f, extra) ->
      let n = (2 * f) + 2 + extra in
      let s = Theorem4.default_setup ~n ~f in
      let game = Theorem4.greedy s in
      Theorem4.replay s game = List.length game.Theorem4.injections)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_exhaustive_never_exceeds_bound; prop_greedy_replay_consistent ]

let () =
  Alcotest.run "adversary"
    [
      ( "theorem4-model",
        [
          Alcotest.test_case "target values" `Quick test_target_values;
          Alcotest.test_case "default setup" `Quick test_default_setup;
          Alcotest.test_case "quorum_after" `Quick test_quorum_after;
          Alcotest.test_case "eligibility needs faulty endpoint" `Quick
            test_eligible_requires_faulty_endpoint;
          Alcotest.test_case "used pairs excluded" `Quick test_eligible_excludes_used;
          Alcotest.test_case "bound achieved f=1" `Quick test_exhaustive_achieves_bound_f1;
          Alcotest.test_case "bound achieved f=2" `Quick test_exhaustive_achieves_bound_f2;
          Alcotest.test_case "bound achieved f=3" `Quick test_exhaustive_achieves_bound_f3;
          Alcotest.test_case "exhaustive guard" `Quick test_exhaustive_guard;
          Alcotest.test_case "greedy reasonable" `Quick test_greedy_reasonable;
          Alcotest.test_case "every injection changes quorum" `Quick
            test_quorum_changes_every_injection;
        ] );
      ( "theorem4-replay",
        [
          Alcotest.test_case "replay f=1" `Quick test_replay_f1;
          Alcotest.test_case "replay f=2" `Quick test_replay_f2;
          Alcotest.test_case "replay f=3" `Quick test_replay_f3;
          Alcotest.test_case "upper bounds respected" `Quick test_upper_bound_respected;
        ] );
      ( "attacks",
        [
          Alcotest.test_case "mute replicas" `Quick test_attack_mute;
          Alcotest.test_case "omit links" `Quick test_attack_omit_links;
          Alcotest.test_case "equivocate" `Quick test_attack_equivocate;
          Alcotest.test_case "ramp delay" `Quick test_attack_ramp_delay_defeats_fixed_timeout;
          Alcotest.test_case "describe" `Quick test_describe;
        ] );
      ("properties", qsuite);
    ]
