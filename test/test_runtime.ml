(* Real runtime: mailbox/frame/envelope components, the TCP transport's
   quarantine and dedup behavior against raw sockets, and end-to-end
   loopback clusters — no-fault, nemesis loss+latency, and kill-then-
   restart rejoin — verdicted by the online monitor. *)

module Stime = Qs_sim.Stime
module Sim = Qs_sim.Sim
module Codec = Qs_recovery.Codec
module Fault = Qs_faults.Fault
module Replica = Qs_xpaxos.Replica
module Xmsg = Qs_xpaxos.Xmsg
module Mailbox = Qs_runtime.Mailbox
module Frame = Qs_runtime.Frame
module Envelope = Qs_runtime.Envelope
module Transport = Qs_runtime.Transport
module Tcp = Qs_runtime.Tcp
module Node = Qs_runtime.Node
module Cluster = Qs_runtime.Cluster
module Supervisor = Qs_runtime.Supervisor

let ms = Stime.of_ms

(* ------------------------------------------------------------------ *)
(* Mailbox *)

let test_mailbox_shed_oldest () =
  let mb = Mailbox.create ~capacity:3 in
  List.iter (fun i -> ignore (Mailbox.push mb i : bool)) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "shed count" 2 (Mailbox.shed mb);
  let drained = List.filter_map (fun _ -> Mailbox.pop ~timeout:0.01 mb) [ (); (); () ] in
  Alcotest.(check (list int)) "oldest shed, newest kept" [ 3; 4; 5 ] drained

let test_mailbox_close_drains () =
  let mb = Mailbox.create ~capacity:4 in
  ignore (Mailbox.push mb "a" : bool);
  Mailbox.close mb;
  Alcotest.(check bool) "push after close rejected" false (Mailbox.push mb "b");
  Alcotest.(check (option string)) "drains residue" (Some "a") (Mailbox.pop mb);
  Alcotest.(check (option string)) "then closed" None (Mailbox.pop mb);
  Alcotest.(check int) "close discards don't count as shed" 0 (Mailbox.shed mb)

let test_mailbox_cross_thread () =
  let mb = Mailbox.create ~capacity:128 in
  let got = ref [] in
  let consumer =
    Thread.create
      (fun () ->
        let rec go () =
          match Mailbox.pop mb with
          | Some v ->
            got := v :: !got;
            go ()
          | None -> ()
        in
        go ())
      ()
  in
  for i = 0 to 99 do
    ignore (Mailbox.push mb i : bool)
  done;
  Mailbox.close mb;
  Thread.join consumer;
  Alcotest.(check int) "all delivered" 100 (List.length !got);
  Alcotest.(check (list int)) "in order" (List.init 100 (fun i -> i)) (List.rev !got)

(* ------------------------------------------------------------------ *)
(* Supervisor *)

let test_supervisor_restart_budget () =
  let runs = ref 0 in
  let sup =
    Supervisor.spawn ~name:"crashy" ~restarts:2 (fun () ->
        incr runs;
        failwith "boom")
  in
  Supervisor.join sup;
  Alcotest.(check int) "initial run + budgeted restarts" 3 !runs;
  Alcotest.(check int) "restarts consumed" 2 (Supervisor.restarts sup);
  Alcotest.(check bool) "dead for good" false (Supervisor.alive sup)

(* ------------------------------------------------------------------ *)
(* Frame codec (satellite: corruption robustness) *)

let arbitrary_frame =
  let open QCheck in
  let gen =
    Gen.map
      (fun (kind, src, incarnation, seq, payload) ->
        { Frame.kind; src; incarnation; seq; payload })
      Gen.(
        tup5
          (oneofl [ Frame.Hello; Frame.Data; Frame.Keepalive ])
          (int_bound 1024) (int_bound 1_000_000) (int_bound 1_000_000)
          (string_size (int_bound 256)))
  and print f =
    Printf.sprintf "{src=%d; seq=%d; payload=%d bytes}" f.Frame.src f.Frame.seq
      (String.length f.Frame.payload)
  in
  QCheck.make ~print gen

let frame_roundtrip =
  QCheck.Test.make ~name:"frame: encode/decode round-trips" ~count:200
    arbitrary_frame (fun f ->
      let body =
        let s = Frame.encode f in
        String.sub s 4 (String.length s - 4)
      in
      Frame.decode_body body = f)

let frame_truncation_rejected =
  QCheck.Test.make ~name:"frame: any truncation rejected as Corrupt" ~count:100
    QCheck.(pair arbitrary_frame small_nat)
    (fun (f, cut) ->
      let s = Frame.encode f in
      let body = String.sub s 4 (String.length s - 4) in
      let keep = cut mod String.length body in
      match Frame.decode_body (String.sub body 0 (max 0 keep)) with
      | _ -> false
      | exception Codec.Corrupt _ -> true)

let frame_corruption_rejected =
  QCheck.Test.make ~name:"frame: any single-byte corruption rejected as Corrupt"
    ~count:300
    QCheck.(triple arbitrary_frame small_nat (int_range 1 255))
    (fun (f, pos, flip) ->
      let s = Frame.encode f in
      let body = Bytes.of_string (String.sub s 4 (String.length s - 4)) in
      let pos = pos mod Bytes.length body in
      Bytes.set body pos
        (Char.chr (Char.code (Bytes.get body pos) lxor flip));
      match Frame.decode_body (Bytes.to_string body) with
      | _ -> false
      | exception Codec.Corrupt _ -> true)

(* ------------------------------------------------------------------ *)
(* Envelope codec *)

let sample_envelopes =
  let auth = Qs_crypto.Auth.create 4 in
  let request = { Xmsg.client = 7; rid = 3; op = "write x=1" } in
  let sp =
    Xmsg.sign_prepare auth ~leader:1 { Xmsg.view = 2; slot = 5; request }
  in
  let entry =
    { Xmsg.eview = 2; eslot = 5; erequest = request; ecommitted = true;
      epsig = sp.Xmsg.psig }
  in
  [
    Envelope.Proto (Xmsg.seal auth ~sender:1 (Xmsg.Prepare sp));
    Envelope.Proto
      (Xmsg.seal auth ~sender:2 (Xmsg.Commit { cview = 2; cslot = 5; csp = sp }));
    Envelope.Proto (Xmsg.seal auth ~sender:0 (Xmsg.Suspect { sview = 4 }));
    Envelope.Proto
      (Xmsg.seal auth ~sender:3
         (Xmsg.View_change { vview = 3; vlog = [ entry; entry ] }));
    Envelope.Proto
      (Xmsg.seal auth ~sender:0 (Xmsg.New_view { nview = 3; nlog = [ entry ] }));
    Envelope.Proto
      (Xmsg.seal auth ~sender:2
         (Xmsg.Qsel
            (Qs_core.Msg.seal auth
               { Qs_core.Msg.owner = 2; row = [| 0; 3; 0; 1 |] })));
    Envelope.Rejoin (Qs_recovery.Rejoin.State_req { rid = 9 });
    Envelope.Rejoin
      (Qs_recovery.Rejoin.State_resp
         { rid = 9;
           payload = { Qs_recovery.Rejoin.matrix = "mx"; epoch = 4; extra = "xx" } });
    Envelope.Rejoin
      (Qs_recovery.Rejoin.State_push
         { payload = { Qs_recovery.Rejoin.matrix = ""; epoch = 1; extra = "" } });
    Envelope.Rejoin (Qs_recovery.Rejoin.State_delta { delta = "d" });
    Envelope.Rejoin (Qs_recovery.Rejoin.Delta_ack { acks = [ (0, 1); (3, 2) ] });
  ]

let test_envelope_roundtrip () =
  List.iteri
    (fun i env ->
      let env' = Envelope.decode (Envelope.encode env) in
      Alcotest.(check bool)
        (Printf.sprintf "envelope %d round-trips" i)
        true (env = env'))
    sample_envelopes

let test_envelope_rejects_garbage () =
  Alcotest.check_raises "garbage" (Codec.Corrupt "bad magic") (fun () ->
      try ignore (Envelope.decode "garbage" : Envelope.t)
      with Codec.Corrupt _ -> raise (Codec.Corrupt "bad magic"))

(* ------------------------------------------------------------------ *)
(* TCP transport against raw sockets: quarantine and dedup *)

module StrWire = struct
  type msg = string

  let encode s = s

  let decode s = if s = "corrupt-me" then raise (Codec.Corrupt "poison") else s
end

module StrTcp = Tcp.Make (StrWire)

let rec wait_for ?(tries = 400) pred =
  if pred () then true
  else if tries = 0 then false
  else begin
    Thread.delay 0.005;
    wait_for ~tries:(tries - 1) pred
  end

(* A corrupt frame on a connection claiming to be from peer 1 must
   quarantine only that connection: endpoint 1's own traffic, on its own
   connection, keeps flowing. *)
let test_corrupt_frame_quarantines_connection_not_sender () =
  let addrs = Cluster.loopback_addrs ~n:2 () in
  let fabric = StrTcp.create ~addrs () in
  let got = ref [] in
  StrTcp.start fabric ~me:0;
  StrTcp.start fabric ~me:1;
  StrTcp.set_handler fabric 0 (fun ~src m -> got := (src, m) :: !got);
  (* Forger: a raw socket sending a Hello claiming src = 1, then garbage. *)
  let forger = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect forger addrs.(0);
  Frame.write forger
    { Frame.kind = Frame.Hello; src = 1; incarnation = 42; seq = 0; payload = "" };
  let corrupt =
    let good =
      Frame.encode
        { Frame.kind = Frame.Data; src = 1; incarnation = 42; seq = 1;
          payload = "evil" }
    in
    let b = Bytes.of_string good in
    (* Flip a payload byte, leaving the length prefix intact. *)
    Bytes.set b (Bytes.length b - 1)
      (Char.chr (Char.code (Bytes.get b (Bytes.length b - 1)) lxor 0xFF));
    Bytes.to_string b
  in
  let _ =
    Unix.write forger (Bytes.of_string corrupt) 0 (String.length corrupt)
  in
  let quarantined =
    wait_for (fun () -> (StrTcp.stats fabric ~me:0).Tcp.corrupt_rejected = 1)
  in
  Alcotest.(check bool) "corrupt frame rejected" true quarantined;
  (* The real peer 1 — the claimed sender — must be unaffected. *)
  StrTcp.send fabric ~src:1 ~dst:0 "hello-from-real-1";
  let delivered =
    wait_for (fun () -> List.mem (1, "hello-from-real-1") !got)
  in
  Alcotest.(check bool) "claimed sender still delivers" true delivered;
  (* And the forger's connection is dead: writes eventually fail. *)
  let dead =
    wait_for (fun () ->
        try
          ignore
            (Unix.write forger (Bytes.of_string corrupt) 0 (String.length corrupt));
          false
        with Unix.Unix_error _ -> true)
  in
  Alcotest.(check bool) "forger connection closed" true dead;
  (try Unix.close forger with Unix.Unix_error _ -> ());
  StrTcp.stop fabric ~me:0;
  StrTcp.stop fabric ~me:1

(* Re-sent sequence numbers are dropped; a new incarnation resets the
   watermark (a restarted process must not be deduped into silence). *)
let test_dedup_watermark_and_incarnation () =
  let addrs = Cluster.loopback_addrs ~n:2 () in
  let fabric = StrTcp.create ~addrs () in
  let got = ref [] in
  StrTcp.start fabric ~me:0;
  StrTcp.set_handler fabric 0 (fun ~src:_ m -> got := m :: !got);
  let peer = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect peer addrs.(1 - 1);
  let send ~incarnation ~seq payload =
    Frame.write peer { Frame.kind = Frame.Data; src = 1; incarnation; seq; payload }
  in
  Frame.write peer
    { Frame.kind = Frame.Hello; src = 1; incarnation = 1; seq = 0; payload = "" };
  send ~incarnation:1 ~seq:1 "a";
  send ~incarnation:1 ~seq:2 "b";
  send ~incarnation:1 ~seq:2 "b-dup";
  send ~incarnation:1 ~seq:1 "a-dup";
  send ~incarnation:1 ~seq:3 "c";
  send ~incarnation:2 ~seq:1 "restart";
  let ok =
    wait_for (fun () -> (StrTcp.stats fabric ~me:0).Tcp.dup_dropped = 2)
  in
  Alcotest.(check bool) "two dups dropped" true ok;
  ignore (wait_for (fun () -> List.length !got = 4) : bool);
  Alcotest.(check (list string))
    "fresh frames delivered in order, watermark reset on new incarnation"
    [ "a"; "b"; "c"; "restart" ] (List.rev !got);
  (try Unix.close peer with Unix.Unix_error _ -> ());
  StrTcp.stop fabric ~me:0

(* ------------------------------------------------------------------ *)
(* Sim-vs-real parity: the same Node functor over both transports *)

module SimT = Transport.Sim (struct
  type msg = Envelope.t
end)

module SimNode = Node.Make (SimT)

(* Drive the identical sequential workload through the simulated transport;
   return the committed-request prefix every replica agrees on. *)
let sim_committed_prefix ~n ~f ~requests =
  let sim = Sim.create ~seed:7L () in
  let net =
    Qs_sim.Network.create ~sim ~n ~delay:(Qs_sim.Network.Fixed (ms 1)) ~fifo:true ()
  in
  let transport = SimT.create ~net in
  let auth = Qs_crypto.Auth.create n in
  let config =
    {
      Replica.n;
      f;
      mode = Replica.Quorum_selection;
      initial_timeout = ms 150;
      timeout_strategy = Qs_fd.Timeout.Exponential { factor = 2.0; max = ms 2000 };
    }
  in
  let nodes =
    Array.init n (fun me ->
        SimNode.create ~config ~me ~auth ~transport
          ~store:(Qs_recovery.Store.create ()) ())
  in
  for k = 0 to requests - 1 do
    let request = { Xmsg.client = 0; rid = k; op = Printf.sprintf "op-%d" k } in
    Array.iter (fun node -> SimNode.submit node request) nodes;
    Sim.run ~until:(ms ((k + 1) * 500)) sim
  done;
  Sim.run ~until:(ms ((requests + 2) * 500)) sim;
  (* Replicas outside the synchronous group stay passive in XPaxos, so
     take the longest executed history — after checking every replica's
     history is a prefix of it. *)
  let histories =
    Array.to_list
      (Array.map
         (fun node ->
           List.map
             (fun (r : Xmsg.request) -> r.Xmsg.rid)
             (Replica.executed (SimNode.replica node)))
         nodes)
  in
  let longest =
    List.fold_left
      (fun acc h -> if List.length h > List.length acc then h else acc)
      [] histories
  in
  assert (List.for_all (Qs_sim.Smr_cluster.prefix_compatible longest) histories);
  longest

let test_parity_sim_vs_tcp () =
  let n = 4 and f = 1 and requests = 3 in
  let sim_prefix = sim_committed_prefix ~n ~f ~requests in
  Alcotest.(check (list int))
    "sim transport commits the full workload"
    (List.init requests (fun i -> i))
    sim_prefix;
  let report = Cluster.run ~seed:11L ~requests ~n ~f () in
  Alcotest.(check int) "tcp commits the same requests" requests report.Cluster.committed;
  Alcotest.(check bool) "tcp prefixes agree" true report.Cluster.prefix_agreement;
  Alcotest.(check int)
    "zero monitor violations" 0
    (List.length report.Cluster.violations)

(* ------------------------------------------------------------------ *)
(* End-to-end: nemesis loss + latency, and kill-then-restart rejoin *)

let test_cluster_under_loss_and_latency () =
  let schedule =
    [
      Fault.at ~start:(ms 0) ~stop:(ms 8000) (Fault.Omit { src = 3; dst = 0 });
      Fault.at ~start:(ms 0) ~stop:(ms 8000)
        (Fault.Delay { src = 3; dst = 1; by = ms 20 });
    ]
  in
  let report = Cluster.run ~seed:5L ~requests:3 ~schedule ~n:4 ~f:1 () in
  Alcotest.(check bool)
    "all requests committed despite faults" true
    (report.Cluster.committed = 3);
  Alcotest.(check bool) "prefixes agree" true report.Cluster.prefix_agreement;
  Alcotest.(check int)
    "zero monitor violations" 0
    (List.length report.Cluster.violations);
  Alcotest.(check bool)
    "nemesis actually armed" true
    (report.Cluster.nemesis_installed >= 2);
  let dropped =
    Array.fold_left
      (fun acc (s : Tcp.stats) -> acc + s.Tcp.nemesis_dropped)
      0 report.Cluster.stats
  in
  Alcotest.(check bool) "loss policy dropped frames" true (dropped > 0)

let test_cluster_kill_restart_rejoins () =
  let schedule =
    [ Fault.at ~start:(ms 300) ~stop:(ms 1200) (Fault.CrashAmnesia 2) ]
  in
  let report =
    Cluster.run ~seed:23L ~requests:3 ~request_timeout_ms:6000 ~schedule
      ~duration_ms:2500 ~n:4 ~f:1 ()
  in
  Alcotest.(check bool)
    "requests committed around the crash" true
    (report.Cluster.committed >= 2);
  Alcotest.(check bool) "prefixes agree" true report.Cluster.prefix_agreement;
  Alcotest.(check int)
    "zero monitor violations" 0
    (List.length report.Cluster.violations);
  Alcotest.(check bool)
    "the killed replica rejoined through the recovery plane" true
    (report.Cluster.recoveries_completed >= 1);
  let reconnects =
    Array.fold_left
      (fun acc (s : Tcp.stats) -> acc + s.Tcp.reconnects)
      0 report.Cluster.stats
  in
  Alcotest.(check bool) "socket death forced reconnects" true (reconnects > 0)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "runtime"
    [
      ( "mailbox",
        [
          Alcotest.test_case "drop-oldest shedding" `Quick test_mailbox_shed_oldest;
          Alcotest.test_case "close drains then stops" `Quick test_mailbox_close_drains;
          Alcotest.test_case "cross-thread order" `Quick test_mailbox_cross_thread;
        ] );
      ( "supervisor",
        [ Alcotest.test_case "restart budget" `Quick test_supervisor_restart_budget ] );
      ( "frame",
        [
          qt frame_roundtrip;
          qt frame_truncation_rejected;
          qt frame_corruption_rejected;
        ] );
      ( "envelope",
        [
          Alcotest.test_case "round-trips every constructor" `Quick
            test_envelope_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_envelope_rejects_garbage;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "corrupt frame quarantines connection, not sender"
            `Quick test_corrupt_frame_quarantines_connection_not_sender;
          Alcotest.test_case "dedup watermark + incarnation reset" `Quick
            test_dedup_watermark_and_incarnation;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "sim-vs-tcp parity" `Slow test_parity_sim_vs_tcp;
          Alcotest.test_case "commits under loss+latency nemesis" `Slow
            test_cluster_under_loss_and_latency;
          Alcotest.test_case "kill-then-restart rejoins" `Slow
            test_cluster_kill_restart_rejoins;
        ] );
    ]
