(* Crash-recovery subsystem tests: the durable Store's fsync-point
   semantics, the versioned Codec framing (round-trips and explicit
   corruption), the Rejoin engine on a live simulation (happy path, retry
   backoff, response buffering, the never-completing dormant-safe mode,
   anti-entropy gossip), amnesia/dormancy on both selection variants, and
   the XPaxos deep-durability integration. Plus the two codec QCheck
   satellites: matrix round-trip and CRDT-merge laws on decoded state, and
   the fault-DSL round-trip over every kind including amnesia crashes. *)

module Sim = Qs_sim.Sim
module Stime = Qs_sim.Stime
module Network = Qs_sim.Network
module Matrix = Qs_core.Suspicion_matrix
module QS = Qs_core.Quorum_select
module FS = Qs_follower.Follower_select
module Store = Qs_recovery.Store
module Codec = Qs_recovery.Codec
module Rejoin = Qs_recovery.Rejoin
module Fault = Qs_faults.Fault
module Replica = Qs_xpaxos.Replica
module Xcluster = Qs_xpaxos.Xcluster
module Auth = Qs_crypto.Auth

let ms = Stime.of_ms

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str_opt = Alcotest.(check (option string))

(* ------------------------------------------------------------------ *)
(* Store: what survives a crash is exactly the last fsync point *)

let test_store_fsync_point () =
  let s = Store.create () in
  Store.put s "k" "v1";
  check_str_opt "running process reads the overlay" (Some "v1") (Store.get s "k");
  check_str_opt "recovery would not" None (Store.durable_get s "k");
  Store.fsync s;
  check_str_opt "fsync makes it durable" (Some "v1") (Store.durable_get s "k");
  Store.put s "k" "v2";
  Store.put s "j" "x";
  Store.crash s;
  check_str_opt "unflushed overwrite is gone" (Some "v1") (Store.get s "k");
  check_str_opt "unflushed insert is gone" None (Store.get s "j");
  check_int "both losses counted" 2 (Store.lost_writes s);
  check_int "one crash" 1 (Store.crashes s)

let test_store_auto_fsync () =
  let s = Store.create ~fsync_every:2 () in
  Store.put s "a" "1";
  check_int "first put stays pending" 1 (Store.pending_writes s);
  Store.put s "b" "2";
  check_int "second put auto-fsyncs" 0 (Store.pending_writes s);
  Store.put s "c" "3";
  Store.crash s;
  check_str_opt "pre-point writes survive" (Some "2") (Store.get s "b");
  check_str_opt "post-point write does not" None (Store.get s "c")

(* ------------------------------------------------------------------ *)
(* Codec: round-trips and explicit corruption *)

let sample_matrix () =
  let m = Matrix.create 4 in
  Matrix.record m ~suspector:0 ~suspect:3 ~epoch:2;
  Matrix.record m ~suspector:2 ~suspect:1 ~epoch:5;
  m

let test_codec_roundtrips () =
  let m = sample_matrix () in
  check_bool "matrix" true (Matrix.equal m (Codec.decode_matrix (Codec.encode_matrix m)));
  check_int "epoch" 12345 (Codec.decode_epoch (Codec.encode_epoch 12345));
  let tmo = [| ms 25; ms 50; ms 400 |] in
  check_bool "timeouts" true (Codec.decode_timeouts (Codec.encode_timeouts tmo) = tmo)

let corrupt name f =
  match f () with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.failf "%s: corruption absorbed silently" name

let test_codec_rejects_corruption () =
  let enc = Codec.encode_matrix (sample_matrix ()) in
  corrupt "empty" (fun () -> Codec.decode_matrix "");
  corrupt "truncated" (fun () ->
      Codec.decode_matrix (String.sub enc 0 (String.length enc - 3)));
  let flipped = Bytes.of_string enc in
  let mid = String.length enc / 2 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0x41));
  corrupt "bit flip caught by checksum" (fun () ->
      Codec.decode_matrix (Bytes.to_string flipped));
  corrupt "wrong tag" (fun () -> Codec.decode_matrix (Codec.encode_epoch 7));
  corrupt "unknown version" (fun () ->
      Codec.decode_matrix (Codec.frame ~tag:"mtx" ~version:99 "payload"))

(* Satellite: QCheck over random matrices — codec round-trip, and the
   join-semilattice laws still hold for state that went through the wire
   (what rejoin relies on: merging a decoded stale matrix is idempotent
   and commutative). *)

let matrix_gen n =
  QCheck.Gen.(
    map
      (fun cells ->
        let m = Matrix.create n in
        List.iter
          (fun (i, j, e) ->
            if i <> j then Matrix.record m ~suspector:i ~suspect:j ~epoch:e)
          cells;
        m)
      (list_size (int_bound (n * n)) (triple (int_bound (n - 1)) (int_bound (n - 1)) (int_range 1 6))))

let matrix_arb =
  QCheck.make ~print:(Format.asprintf "%a" Matrix.pp) (matrix_gen 5)

let prop_matrix_codec_roundtrip =
  QCheck.Test.make ~name:"matrix codec round-trip" ~count:200 matrix_arb (fun m ->
      Matrix.equal m (Codec.decode_matrix (Codec.encode_matrix m)))

let prop_decoded_merge_laws =
  QCheck.Test.make ~name:"merge of decoded matrix: idempotent + commutative" ~count:200
    QCheck.(pair matrix_arb matrix_arb)
    (fun (a, b) ->
      let d = Codec.decode_matrix (Codec.encode_matrix a) in
      (* idempotent: a second merge of the same decoded state is a no-op *)
      let t = Matrix.copy b in
      ignore (Matrix.merge t d);
      let once = Matrix.copy t in
      check_bool "second merge changes nothing" false (Matrix.merge t d);
      check_bool "state unchanged" true (Matrix.equal once t);
      (* commutative: a ⊔ b = b ⊔ a, through the codec *)
      let ab = Matrix.copy a and ba = Matrix.copy b in
      ignore (Matrix.merge ab (Codec.decode_matrix (Codec.encode_matrix b)));
      ignore (Matrix.merge ba d);
      Matrix.equal ab ba)

(* Satellite: the fault DSL renders and re-parses every kind, including
   amnesia crashes and the four commission kinds, byte-for-byte. *)

let kind_gen n =
  QCheck.Gen.(
    let pid = int_bound (n - 1) in
    let link = map2 (fun src d -> (src, (src + 1 + d) mod n)) pid (int_bound (n - 2)) in
    oneof
      [
        map (fun p -> Fault.Crash p) pid;
        map (fun p -> Fault.CrashAmnesia p) pid;
        map (fun (src, dst) -> Fault.Omit { src; dst }) link;
        map2 (fun (src, dst) by -> Fault.Delay { src; dst; by = ms by }) link (int_range 1 500);
        map2
          (fun (src, dst) copies -> Fault.Duplicate { src; dst; copies })
          link (int_range 2 4);
        map (fun k -> Fault.Partition (List.init k Fun.id)) (int_range 1 (n - 1));
        map2
          (fun src k ->
            let scope =
              List.filteri (fun i _ -> i < k)
                (List.filter (fun q -> q <> src) (List.init n Fun.id))
            in
            Fault.Equivocate { src; scope })
          pid (int_range 1 (n - 1));
        map (fun (src, victim) -> Fault.Slander { src; victim }) link;
        map (fun (src, dst) -> Fault.Tamper { src; dst }) link;
        map (fun (src, dst) -> Fault.Replay { src; dst }) link;
      ])

let phase_gen n =
  QCheck.Gen.(
    map3
      (fun what start stop_delta ->
        let start = ms start in
        match stop_delta with
        | None -> { Fault.start; stop = None; what }
        | Some d -> { Fault.start; stop = Some (start + ms d); what })
      (kind_gen n) (int_bound 3000)
      (opt (int_range 1 2000)))

let schedule_arb n =
  QCheck.make ~print:Fault.to_string QCheck.Gen.(list_size (int_bound 6) (phase_gen n))

let prop_fault_roundtrip =
  QCheck.Test.make ~name:"fault schedule to_string/of_string round-trip (all kinds)"
    ~count:300 (schedule_arb 6) (fun s ->
      let rendered = Fault.to_string s in
      Fault.to_string (Fault.of_string ~n:6 rendered) = rendered)

(* ------------------------------------------------------------------ *)
(* Rejoin engine on a live simulation *)

(* A 3-node recovery plane over synthetic per-node state: each node's
   "protocol state" is just a matrix + epoch, and adoption counts let the
   tests see exactly when the CRDT join ran. *)
let plane ?(tweak = fun c -> c) ~n () =
  let sim = Sim.create () in
  let net = Network.create ~sim ~n ~delay:(Network.Fixed (ms 1)) ~fifo:true () in
  let mats = Array.init n (fun _ -> Matrix.create n) in
  let epochs = Array.make n 1 in
  let adoptions = Array.make n 0 in
  let config = tweak (Rejoin.default_config ~n) in
  let nodes =
    Array.init n (fun me ->
        Rejoin.create ~sim config ~me
          ~collect:(fun () ->
            { Rejoin.matrix = Codec.encode_matrix mats.(me);
              epoch = epochs.(me);
              extra = "" })
          ~adopt:(fun ~matrix ~epoch ~extra:_ ->
            ignore (Matrix.merge mats.(me) matrix);
            if epoch > epochs.(me) then epochs.(me) <- epoch;
            adoptions.(me) <- adoptions.(me) + 1)
          ~send:(fun ~dst msg -> Network.send net ~src:me ~dst msg)
          ())
  in
  Array.iteri
    (fun i node -> Network.set_handler net i (fun ~src msg -> Rejoin.handle node ~src msg))
    nodes;
  (sim, net, mats, epochs, adoptions, nodes)

let seed_suspicion mats p = Matrix.record mats.(p) ~suspector:0 ~suspect:2 ~epoch:1

let test_rejoin_happy_path () =
  let sim, _, mats, epochs, adoptions, nodes = plane ~n:3 () in
  seed_suspicion mats 0;
  seed_suspicion mats 2;
  epochs.(0) <- 3;
  Rejoin.start nodes.(1);
  Sim.run sim;
  check_bool "round closed" false (Rejoin.rejoining nodes.(1));
  check_int "one completed round" 1 (Rejoin.completed_rounds nodes.(1));
  check_int "no retries needed" 0 (Rejoin.retries nodes.(1));
  check_bool "peer state merged" true
    (Matrix.get mats.(1) ~suspector:0 ~suspect:2 > 0);
  check_int "epoch fast-forwarded" 3 epochs.(1);
  check_bool "adopted at least the completing response" true (adoptions.(1) >= 1)

let test_rejoin_retries_with_backoff () =
  let sim, net, _, _, _, nodes = plane ~n:3 () in
  (* Black-hole the rejoiner's requests until t = 120ms: the initial
     broadcast and the 50ms retry die, the 150ms retry gets through. *)
  ignore
    (Network.add_filter net (fun ~now ~src ~dst:_ _ ->
         if src = 1 && now < ms 120 then Network.Drop else Network.Deliver));
  Rejoin.start nodes.(1);
  Sim.run sim;
  check_int "two rebroadcasts before success" 2 (Rejoin.retries nodes.(1));
  check_int "completed despite the loss" 1 (Rejoin.completed_rounds nodes.(1))

let test_rejoin_buffers_until_complete () =
  (* needed = 2, but one of the two peers never answers: the single valid
     response is buffered, never adopted, and the node stays dormant —
     the safe failure mode. *)
  let sim, net, _, _, adoptions, nodes =
    plane ~n:3 ~tweak:(fun c -> { c with Rejoin.needed = 2 }) ()
  in
  ignore
    (Network.add_filter net (fun ~now:_ ~src ~dst _ ->
         if src = 0 && dst = 1 then Network.Drop else Network.Deliver));
  Rejoin.start nodes.(1);
  Sim.run sim;
  check_bool "still rejoining" true (Rejoin.rejoining nodes.(1));
  check_int "retries exhausted" (Rejoin.default_config ~n:3).Rejoin.max_retries
    (Rejoin.retries nodes.(1));
  check_int "nothing adopted from inside the open round" 0 adoptions.(1)

let test_rejoin_needed_two_completes () =
  let sim, _, mats, _, adoptions, nodes =
    plane ~n:3 ~tweak:(fun c -> { c with Rejoin.needed = 2 }) ()
  in
  seed_suspicion mats 0;
  Rejoin.start nodes.(1);
  Sim.run sim;
  check_bool "closed with two responders" false (Rejoin.rejoining nodes.(1));
  check_int "whole buffer adopted at completion" 2 adoptions.(1);
  check_bool "merged" true (Matrix.get mats.(1) ~suspector:0 ~suspect:2 > 0)

let test_rejoin_rejects_bad_payloads () =
  let sim, _, _, _, adoptions, nodes = plane ~n:3 () in
  Rejoin.handle nodes.(1) ~src:0 (Rejoin.State_push { payload = { matrix = "garbage"; epoch = 1; extra = "" } });
  Rejoin.handle nodes.(1) ~src:2
    (Rejoin.State_push
       { payload = { matrix = Codec.encode_matrix (Matrix.create 3); epoch = 0; extra = "" } });
  Sim.run sim;
  check_int "both rejected by the codec/validity gate" 2 (Rejoin.bad_payloads nodes.(1));
  check_int "neither adopted" 0 adoptions.(1)

let test_gossip_converges_without_crash () =
  let sim, _, mats, _, adoptions, nodes =
    plane ~n:3 ~tweak:(fun c -> { c with Rejoin.gossip_every = Some (ms 100) }) ()
  in
  seed_suspicion mats 0;
  Rejoin.start_gossip nodes.(0);
  Sim.run ~until:(ms 450) sim;
  check_bool "push reached p1" true (Matrix.get mats.(1) ~suspector:0 ~suspect:2 > 0);
  check_bool "push reached p2" true (Matrix.get mats.(2) ~suspector:0 ~suspect:2 > 0);
  check_bool "adopted directly (no open round)" true (adoptions.(1) >= 1)

(* ------------------------------------------------------------------ *)
(* Selector dormancy: amnesia wipes, merges stay silent, absorb wakes *)

let test_qs_amnesia_dormancy () =
  let cfg = { QS.n = 4; f = 1 } in
  let auth = Auth.create 4 in
  let captured = ref [] in
  let qs0 =
    QS.create cfg ~me:0 ~auth ~send:(fun m -> captured := m :: !captured)
      ~on_quorum:(fun _ -> ())
      ()
  in
  QS.handle_suspected qs0 [ 3 ];
  let update = List.hd !captured in
  let qs1 =
    QS.create cfg ~me:1 ~auth ~send:(fun _ -> ()) ~on_quorum:(fun _ -> ()) ()
  in
  QS.handle_update qs1 update;
  check_bool "merged while awake" true (Matrix.get (QS.matrix qs1) ~suspector:0 ~suspect:3 > 0);
  QS.amnesia qs1;
  check_bool "dormant" true (QS.dormant qs1);
  check_int "matrix wiped" 0 (Matrix.get (QS.matrix qs1) ~suspector:0 ~suspect:3);
  check_int "epoch reset" 1 (QS.epoch qs1);
  let issued = QS.quorums_issued qs1 in
  QS.handle_update qs1 update;
  check_bool "row merged while dormant (anti-entropy)" true
    (Matrix.get (QS.matrix qs1) ~suspector:0 ~suspect:3 > 0);
  check_int "but no quorum issued from stale state" issued (QS.quorums_issued qs1);
  check_bool "still dormant" true (QS.dormant qs1);
  QS.absorb qs1 ~matrix:(QS.matrix qs0) ~epoch:(QS.epoch qs0);
  check_bool "absorb wakes it" false (QS.dormant qs1);
  check_int "quorum size restored" 3 (List.length (QS.last_quorum qs1))

let test_fs_amnesia_dormancy () =
  let cfg = { QS.n = 4; f = 1 } in
  let auth = Auth.create 4 in
  let fs =
    FS.create cfg ~me:0 ~auth
      ~send:(fun _ -> ())
      ~on_quorum:(fun ~leader:_ _ -> ())
      ~fd_expect:(fun ~leader:_ ~epoch:_ -> ())
      ~fd_cancel:(fun () -> ())
      ~fd_detected:(fun _ -> ())
      ()
  in
  FS.handle_suspected fs [ 1 ];
  FS.amnesia fs;
  check_bool "dormant" true (FS.dormant fs);
  FS.absorb fs ~matrix:(Matrix.create 4) ~epoch:2;
  check_bool "absorb wakes it" false (FS.dormant fs);
  check_int "quorum size restored" 3 (List.length (FS.last_quorum fs))

(* ------------------------------------------------------------------ *)
(* XPaxos deep durability: committed prefix survives the crash, peers
   supply the rest *)

let xpaxos_cfg =
  {
    Replica.n = 3;
    f = 1;
    mode = Replica.Quorum_selection;
    initial_timeout = ms 25;
    timeout_strategy = Qs_fd.Timeout.Exponential { factor = 2.0; max = ms 2000 };
  }

let test_xpaxos_amnesia_restores_durable_log () =
  let c = Xcluster.create xpaxos_cfg in
  Xcluster.attach_durability c;
  let r1 = Xcluster.submit c "a" in
  Xcluster.run ~until:(ms 400) c;
  check_bool "request committed before the crash" true (Xcluster.is_committed c r1);
  (* Only the synchronous group executes in XPaxos — crash one of its
     members, where there is actually durable state to restore. *)
  let victim = List.hd (List.rev (Xcluster.executed_by c r1)) in
  let executed_before = List.length (Replica.executed (Xcluster.replica c victim)) in
  check_bool "victim executed it" true (executed_before >= 1);
  let payload = Xcluster.amnesia c victim in
  (* The committed prefix was fsynced at execute, so the wipe-and-reimport
     lands back on the same history — nothing durable was lost. *)
  check_int "durable log re-imported" executed_before
    (List.length (Replica.executed (Xcluster.replica c victim)));
  check_bool "durable selection state returned" true (payload.Rejoin.epoch >= 1);
  (* CRDT join with a peer's payload (what the rejoin engine does on each
     StateResp), then keep running: the cluster must still make progress
     with the recovered replica participating. *)
  let peer = Xcluster.collect_payload c 0 in
  Xcluster.adopt_payload c victim
    ~matrix:(Codec.decode_matrix peer.Rejoin.matrix)
    ~epoch:peer.Rejoin.epoch ~extra:peer.Rejoin.extra;
  let r2 = Xcluster.submit c "b" in
  Xcluster.run ~until:(ms 1200) c;
  check_bool "post-recovery request commits" true (Xcluster.is_committed c r2);
  check_bool "histories prefix-consistent across the recovery" true
    (Xcluster.consistent c ~correct:[ 0; 1; 2 ])

let test_xpaxos_amnesia_without_durability_is_total () =
  let c = Xcluster.create xpaxos_cfg in
  let r1 = Xcluster.submit c "a" in
  Xcluster.run ~until:(ms 400) c;
  check_bool "committed" true (Xcluster.is_committed c r1);
  let victim = List.hd (Xcluster.executed_by c r1) in
  let payload = Xcluster.amnesia c victim in
  check_int "no store: everything volatile is gone" 0
    (List.length (Replica.executed (Xcluster.replica c victim)));
  check_int "trivial payload" 1 payload.Rejoin.epoch

(* ------------------------------------------------------------------ *)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_matrix_codec_roundtrip; prop_decoded_merge_laws; prop_fault_roundtrip ]

let () =
  Alcotest.run "recovery"
    [
      ( "store",
        [
          Alcotest.test_case "fsync point" `Quick test_store_fsync_point;
          Alcotest.test_case "auto fsync" `Quick test_store_auto_fsync;
        ] );
      ( "codec",
        [
          Alcotest.test_case "round-trips" `Quick test_codec_roundtrips;
          Alcotest.test_case "rejects corruption" `Quick test_codec_rejects_corruption;
        ] );
      ( "rejoin",
        [
          Alcotest.test_case "happy path" `Quick test_rejoin_happy_path;
          Alcotest.test_case "retry backoff" `Quick test_rejoin_retries_with_backoff;
          Alcotest.test_case "buffers until complete" `Quick test_rejoin_buffers_until_complete;
          Alcotest.test_case "needed=2 completes" `Quick test_rejoin_needed_two_completes;
          Alcotest.test_case "bad payloads rejected" `Quick test_rejoin_rejects_bad_payloads;
          Alcotest.test_case "gossip converges" `Quick test_gossip_converges_without_crash;
        ] );
      ( "dormancy",
        [
          Alcotest.test_case "quorum-select" `Quick test_qs_amnesia_dormancy;
          Alcotest.test_case "follower-select" `Quick test_fs_amnesia_dormancy;
        ] );
      ( "xpaxos",
        [
          Alcotest.test_case "durable log restored" `Quick test_xpaxos_amnesia_restores_durable_log;
          Alcotest.test_case "no durability = total loss" `Quick
            test_xpaxos_amnesia_without_durability_is_total;
        ] );
      ("properties", qsuite);
    ]
