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
module Xdurable = Qs_xpaxos.Xdurable
module Xlog = Qs_xpaxos.Xlog
module Xmsg = Qs_xpaxos.Xmsg
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

let test_store_bytes_written () =
  let s = Store.create () in
  Store.put s "k" "abc";
  Store.put s "key" "";
  check_int "key and value bytes of every put" 7 (Store.bytes_written s);
  Store.crash s;
  check_int "lost writes still count" 7 (Store.bytes_written s)

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
(* The incremental durable log: what a recovery reads back equals a full
   encode of the committed log at the last fsync point *)

(* The reference: the whole committed log, encoded in one piece. *)
let full_encode entries = Xdurable.encode_entries entries

type dop = Commit of int | View_change | Resign of int | Amnesia of int

let dop_to_string = function
  | Commit k -> Printf.sprintf "commit %d" k
  | View_change -> "view-change"
  | Resign p -> Printf.sprintf "resign p%d" p
  | Amnesia p -> Printf.sprintf "amnesia p%d" p

let auth3 = Auth.create 3

(* Re-sign replica [p]'s highest committed slot at the next view, as a
   NEW-VIEW carrying a newer prepare for it installs it. *)
let resign c p =
  let r = Xcluster.replica c p in
  match List.rev (Replica.export_log_prefix r) with
  | [] -> ()
  | (e : Xmsg.entry) :: _ ->
    let view = e.Xmsg.eview + 1 in
    let leader = Qs_xpaxos.Enumeration.leader ~n:3 ~q:2 ~view in
    let sp =
      Xmsg.sign_prepare auth3 ~leader
        { Xmsg.view; slot = e.Xmsg.eslot; request = e.Xmsg.erequest }
    in
    Xlog.adopt (Replica.log r)
      { e with Xmsg.eview = view; epsig = sp.Xmsg.psig }
      ~view ~sp

(* The small durable state of a replica: view, adapted timeouts, and the
   selector's encoded matrix and epoch. *)
let small_state r =
  let qsel = Option.get (Replica.quorum_selector r) in
  ( Replica.view r,
    Qs_fd.Timeout.export (Replica.timeouts r),
    Codec.encode_matrix (QS.matrix qsel),
    QS.epoch qsel )

(* Run [ops] on a durable three-replica cluster. After every persist, the
   log a recovery would read from that replica's store must equal a full
   encode of its committed log; after every op, each store must still read
   as its replica's last persist; an amnesia must restore the small state
   of the last persist too. Returns the mismatches, described. *)
let run_durable_ops ?fsync_every ops =
  let last = Array.make 3 "" in
  let last_small = Array.make 3 (0, [||], "", 0) in
  let bad = ref [] in
  let cluster = ref None in
  let at_persist p _ =
    match !cluster with
    | None -> ()
    | Some c ->
      let r = Xcluster.replica c p in
      let want = full_encode (Replica.export_log_prefix r) in
      last.(p) <- want;
      last_small.(p) <- small_state r;
      if full_encode (Xdurable.durable_log (Xcluster.store c p)) <> want then
        bad := Printf.sprintf "p%d after a persist" p :: !bad
  in
  let c = Xcluster.create ~on_execute:at_persist xpaxos_cfg in
  Xcluster.attach_durability ?fsync_every c;
  cluster := Some c;
  for p = 0 to 2 do
    last.(p) <- full_encode (Replica.export_log_prefix (Xcluster.replica c p));
    last_small.(p) <- small_state (Xcluster.replica c p)
  done;
  let now = ref 0 in
  let advance by =
    now := !now + by;
    Xcluster.run ~until:(ms !now) c
  in
  let step = function
    | Commit k ->
      for _ = 1 to k do
        ignore (Xcluster.submit c "op")
      done;
      advance 200
    | View_change ->
      let leader = Replica.leader (Xcluster.replica c 2) in
      Xcluster.set_fault c leader Replica.Mute;
      ignore (Xcluster.submit c "vc");
      advance 400;
      Xcluster.set_fault c leader Replica.Honest;
      advance 200
    | Resign p -> resign c p
    | Amnesia p ->
      (* Re-executing the re-imported log persists again, so take the
         last persist's view of the replica first. *)
      let log = last.(p) and view, timeouts, matrix, epoch = last_small.(p) in
      let payload = Xcluster.amnesia c p in
      let r = Xcluster.replica c p in
      if full_encode (Replica.export_log_prefix r) <> log then
        bad := Printf.sprintf "p%d re-imported another log" p :: !bad;
      if
        Replica.view r <> view
        || Qs_fd.Timeout.export (Replica.timeouts r) <> timeouts
        || payload.Rejoin.matrix <> matrix
        || payload.Rejoin.epoch <> epoch
      then bad := Printf.sprintf "p%d restored another small state" p :: !bad;
      let peer = Xcluster.collect_payload c ((p + 1) mod 3) in
      Xcluster.adopt_payload c p
        ~matrix:(Codec.decode_matrix peer.Rejoin.matrix)
        ~epoch:peer.Rejoin.epoch ~extra:peer.Rejoin.extra
  in
  List.iter
    (fun op ->
      step op;
      for p = 0 to 2 do
        if full_encode (Xdurable.durable_log (Xcluster.store c p)) <> last.(p) then
          bad := Printf.sprintf "p%d after %s" p (dop_to_string op) :: !bad
      done)
    ops;
  (c, List.rev !bad)

let dop_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun k -> Commit (k + 1)) (int_bound 4));
        (2, return View_change);
        (2, map (fun p -> Resign p) (int_bound 2));
        (2, map (fun p -> Amnesia p) (int_bound 2));
      ])

let prop_incremental_log_matches_full_encode =
  QCheck.Test.make ~name:"durable log reads back as a full encode at every fsync point"
    ~count:40
    QCheck.(
      make
        ~print:(fun (fe, ops) ->
          Printf.sprintf "fsync_every=%s: %s"
            (match fe with None -> "none" | Some k -> string_of_int k)
            (String.concat "; " (List.map dop_to_string ops)))
        Gen.(pair (oneofl [ None; Some 1; Some 3 ]) (list_size (int_range 1 12) dop_gen)))
    (fun (fsync_every, ops) ->
      match run_durable_ops ?fsync_every ops with
      | _, [] -> true
      | _, bad -> QCheck.Test.fail_reportf "%s" (String.concat ", " bad))

(* A fixed run long enough to compact several times, with re-signed
   committed slots and an amnesia in the middle. *)
let test_incremental_log_long_run () =
  let ops =
    List.concat
      [
        List.init 10 (fun _ -> Commit 5);
        [ Resign 0; Resign 1; View_change ];
        List.init 10 (fun _ -> Commit 5);
        [ Amnesia 0; Resign 0 ];
        List.init 10 (fun _ -> Commit 5);
      ]
  in
  let c, bad = run_durable_ops ops in
  Alcotest.(check (list string)) "every read-back matches" [] bad;
  check_bool "the run committed a long log" true
    (List.length (Replica.export_log_prefix (Xcluster.replica c 0)) >= 100);
  check_bool "the view changed" true (Xcluster.max_view c > 0)

(* A store this log did not write last gets a complete snapshot: a fresh
   scratch store written mid-run (what perfbench's persist probe does), and
   the replica's own store after an amnesia clear. Run twice, with and
   without the scratch writes: the own store must end the same. *)
let foreign_store_run ~probe =
  let c = Xcluster.create xpaxos_cfg in
  Xcluster.attach_durability c;
  let p = 0 in
  let r = Xcluster.replica c p in
  let own = Xcluster.store c p in
  let full () = full_encode (Replica.export_log_prefix r) in
  let scratch_write () =
    if probe then begin
      let scratch = Store.create () in
      Xdurable.persist r scratch;
      check_bool "scratch store holds the whole log" true
        (full_encode (Xdurable.durable_log scratch) = full ());
      check_str_opt "as one base snapshot, no delta" None (Store.get scratch "log.1")
    end
  in
  let now = ref 0 in
  let batch k =
    for _ = 1 to k do
      ignore (Xcluster.submit c "a")
    done;
    now := !now + 300;
    Xcluster.run ~until:(ms !now) c;
    scratch_write ()
  in
  List.iter batch [ 30; 1; 1; 5 ];
  check_bool "a long log" true (List.length (Replica.export_log_prefix r) >= 37);
  check_bool "the own store took deltas" true (Store.get own "log.1" <> None);
  (* After an amnesia clear the log has a new identity: its first persist
     into the same store — at the first re-executed slot of the re-import —
     writes a new base. *)
  let base = Store.get own "log" in
  ignore (Xcluster.amnesia c p : Rejoin.payload);
  check_bool "re-imported the durable log" true
    (full_encode (Xdurable.durable_log own) = full ());
  check_bool "a new base after the clear" true (Store.get own "log" <> base);
  scratch_write ();
  List.iter batch [ 1; 1; 5 ];
  check_bool "own store reads back the whole log" true
    (full_encode (Xdurable.durable_log own) = full ());
  (* Values carry the writing log's process-unique identity, so the two
     runs compare by key, value length and what recovery reads. *)
  ( List.map (fun (k, v) -> (k, String.length v)) (Store.bindings own),
    Store.bytes_written own,
    full_encode (Xdurable.durable_log own) )

let test_foreign_store_gets_full_snapshot () =
  let with_probe = foreign_store_run ~probe:true in
  let without = foreign_store_run ~probe:false in
  check_bool "scratch writes leave the own store's deltas as they were" true
    (with_probe = without)

(* The entry count is bounded by the payload, not by a constant. *)
let test_entries_count_bound () =
  let w = Codec.W.create () in
  Codec.W.int w 1_000_000_000;
  Codec.W.int w 0;
  corrupt "huge count on a short payload" (fun () ->
      Xdurable.decode_entries (Codec.frame ~tag:"xlg" ~version:1 (Codec.W.contents w)))

let test_entries_million_roundtrip () =
  let n = 1_000_001 in
  let minimal =
    {
      Xmsg.eview = 0;
      eslot = 0;
      erequest = { Xmsg.client = 0; rid = 0; op = "" };
      ecommitted = true;
      epsig = "";
    }
  in
  let entries = List.init n (fun _ -> minimal) in
  let decoded = Xdurable.decode_entries (Xdurable.encode_entries entries) in
  check_int "every entry back" n (List.length decoded);
  check_bool "unchanged" true (List.for_all (fun e -> e = minimal) decoded)

(* ------------------------------------------------------------------ *)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_matrix_codec_roundtrip;
      prop_decoded_merge_laws;
      prop_fault_roundtrip;
      prop_incremental_log_matches_full_encode;
    ]

let () =
  Alcotest.run "recovery"
    [
      ( "store",
        [
          Alcotest.test_case "fsync point" `Quick test_store_fsync_point;
          Alcotest.test_case "auto fsync" `Quick test_store_auto_fsync;
          Alcotest.test_case "bytes written" `Quick test_store_bytes_written;
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
          Alcotest.test_case "incremental log, long run" `Quick
            test_incremental_log_long_run;
          Alcotest.test_case "foreign store gets a full snapshot" `Quick
            test_foreign_store_gets_full_snapshot;
          Alcotest.test_case "entry count bounded by payload" `Quick
            test_entries_count_bound;
          Alcotest.test_case "million-entry log round-trips" `Slow
            test_entries_million_roundtrip;
        ] );
      ("properties", qsuite);
    ]
