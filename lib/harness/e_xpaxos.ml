module Table = Qs_stdx.Table
module Stime = Qs_sim.Stime
module Timeout = Qs_fd.Timeout
module Replica = Qs_xpaxos.Replica
module Xcluster = Qs_xpaxos.Xcluster
module Enumeration = Qs_xpaxos.Enumeration
module Xmsg = Qs_xpaxos.Xmsg

let ms = Stime.of_ms

let config ~mode ~n ~f ~timeout =
  {
    Replica.n;
    f;
    mode;
    initial_timeout = timeout;
    timeout_strategy = Stack.timeout_strategy;
  }

(* Run with f mute low-id replicas until the request commits; report how many
   view installations the surviving replicas performed. *)
let recovery_run ~mode ~n ~f =
  let c = Xcluster.create (config ~mode ~n ~f ~timeout:(ms 20)) in
  for r = 0 to f - 1 do
    Xcluster.set_fault c r Replica.Mute
  done;
  let request = Xcluster.submit c ~resubmit_every:(ms 100) "recover" in
  let deadline = ms 600_000 in
  let rec loop at =
    Xcluster.run ~until:at c;
    if Xcluster.is_committed c request || at > deadline then ()
    else loop (at + ms 1000)
  in
  loop (ms 1000);
  let correct = List.filter (fun p -> p >= f) (List.init n Fun.id) in
  let max_changes =
    List.fold_left (fun acc p -> max acc (Replica.view_changes (Xcluster.replica c p))) 0 correct
  in
  (Xcluster.is_committed c request, max_changes)

let e5_viewchanges ?(fs = [ 1; 2; 3; 4 ]) () =
  let t =
    Table.create
      ~title:
        "E5: view changes until a working quorum (f mute replicas at the worst position)"
      ~columns:
        [
          ("f", Table.Right);
          ("n = 2f+1", Table.Right);
          ("quorums C(n,f)", Table.Right);
          ("XPaxos enumeration", Table.Right);
          ("Quorum Selection", Table.Right);
          ("Follower Sel. (n=3f+1)", Table.Right);
        ]
  in
  let verdicts = ref [] in
  List.iter
    (fun f ->
      let n = (2 * f) + 1 in
      let committed_e, enum_changes = recovery_run ~mode:Replica.Enumeration ~n ~f in
      let committed_q, qs_changes = recovery_run ~mode:Replica.Quorum_selection ~n ~f in
      let fol = Leader_attack.run ~n:((3 * f) + 1) ~f in
      let total_groups = Enumeration.count ~n ~q:(n - f) in
      Table.add_row t
        [
          string_of_int f;
          string_of_int n;
          string_of_int total_groups;
          string_of_int enum_changes;
          string_of_int qs_changes;
          string_of_int fol.Leader_attack.total_issued;
        ];
      verdicts :=
        Verdict.make (Printf.sprintf "f=%d: both modes recover" f) (committed_e && committed_q)
        :: Verdict.make
             (Printf.sprintf "f=%d: quorum selection needs fewer view changes" f)
             (f = 1 || qs_changes < enum_changes)
        :: Verdict.make
             (Printf.sprintf "f=%d: follower selection stays within 6f+2" f)
             (fol.Leader_attack.total_issued <= (6 * f) + 2)
        :: !verdicts)
    fs;
  (t, List.rev !verdicts)

(* Messages per committed request in a happy run. *)
let messages_per_request ~n ~f =
  Stack.messages_per_request
    (module Xcluster)
    (Xcluster.create (config ~mode:Replica.Enumeration ~n ~f ~timeout:(ms 1000)))

(* Same measurement on the two-phase trusted-component protocol (n=2f+1). *)
let minbft_messages_per_request ~f ~participation =
  let n = (2 * f) + 1 and initial_timeout = ms 1000 in
  let timeout_strategy = Timeout.Fixed in
  Stack.messages_per_request
    (module Qs_minbft.Mcluster)
    (Qs_minbft.Mcluster.create
       { Qs_minbft.Mreplica.n; f; participation; initial_timeout; timeout_strategy })

(* Same measurement on the real three-phase PBFT. *)
let pbft_messages_per_request ~f ~participation =
  let n = (3 * f) + 1 and initial_timeout = ms 1000 in
  let timeout_strategy = Timeout.Fixed in
  Stack.messages_per_request
    (module Qs_pbft.Pcluster)
    (Qs_pbft.Pcluster.create
       { Qs_pbft.Preplica.n; f; participation; initial_timeout; timeout_strategy })

let e6_messages () =
  let t =
    Table.create ~title:"E6: active-quorum message reduction (Section I / Distler et al.)"
      ~columns:
        [
          ("system", Table.Left);
          ("n", Table.Right);
          ("f", Table.Right);
          ("msgs/req (active q)", Table.Right);
          ("msgs/req (all n)", Table.Right);
          ("total saved", Table.Right);
          ("fan-out saved", Table.Right);
          ("paper target", Table.Right);
        ]
  in
  let verdicts = ref [] in
  let row label n f target =
    let active = messages_per_request ~n ~f in
    let all = messages_per_request ~n ~f:0 in
    let saved = 1.0 -. (float_of_int active /. float_of_int all) in
    let q = n - f in
    let fanout_saved = 1.0 -. (float_of_int (q - 1) /. float_of_int (n - 1)) in
    Table.add_row t
      [
        label;
        string_of_int n;
        string_of_int f;
        string_of_int active;
        string_of_int all;
        Printf.sprintf "%.0f%%" (saved *. 100.0);
        Printf.sprintf "%.0f%%" (fanout_saved *. 100.0);
        Printf.sprintf "~%.0f%%" (target *. 100.0);
      ];
    verdicts :=
      Verdict.make
        (Printf.sprintf "%s n=%d: fan-out saving within 10%% of the paper's figure" label n)
        (Float.abs (fanout_saved -. target) <= 0.10)
      :: Verdict.make (Printf.sprintf "%s n=%d: active quorum uses fewer messages" label n)
           (active < all)
      :: !verdicts
  in
  (* n = 3f+1 systems (PBFT-style): drop ~1/3 of the messages. *)
  List.iter (fun f -> row "n=3f+1" ((3 * f) + 1) f (1.0 /. 3.0)) [ 1; 2; 3 ];
  (* n = 2f+1 systems (trusted-component/XFT): drop ~1/2. *)
  List.iter (fun f -> row "n=2f+1" ((2 * f) + 1) f 0.5) [ 1; 2; 3 ];
  (* The same claim on the genuine three-phase PBFT: Full (masking,
     all-to-all among all n) vs Selected (the paper's active quorum). *)
  List.iter
    (fun f ->
      let n = (3 * f) + 1 in
      let q = n - f in
      let full = pbft_messages_per_request ~f ~participation:Qs_pbft.Preplica.Full in
      let selected = pbft_messages_per_request ~f ~participation:Qs_pbft.Preplica.Selected in
      let saved = 1.0 -. (float_of_int selected /. float_of_int full) in
      let fanout_saved = 1.0 -. (float_of_int (q - 1) /. float_of_int (n - 1)) in
      Table.add_row t
        [
          "PBFT 3-phase";
          string_of_int n;
          string_of_int f;
          string_of_int selected;
          string_of_int full;
          Printf.sprintf "%.0f%%" (saved *. 100.0);
          Printf.sprintf "%.0f%%" (fanout_saved *. 100.0);
          "~33%";
        ];
      verdicts :=
        Verdict.make
          (Printf.sprintf "PBFT n=%d: selected quorum cheaper than full replication" n)
          (selected < full)
        :: Verdict.make
             (Printf.sprintf "PBFT n=%d: fan-out saving is the paper's ~1/3" n)
             (Float.abs (fanout_saved -. (1.0 /. 3.0)) <= 0.10)
        :: !verdicts)
    [ 1; 2; 3 ];
  (* And on the trusted-component class (MinBFT-style, n = 2f+1): the
     paper's ~1/2 figure. *)
  List.iter
    (fun f ->
      let n = (2 * f) + 1 in
      let q = n - f in
      let full = minbft_messages_per_request ~f ~participation:Qs_minbft.Mreplica.Full in
      let selected =
        minbft_messages_per_request ~f ~participation:Qs_minbft.Mreplica.Selected
      in
      let saved = 1.0 -. (float_of_int selected /. float_of_int full) in
      let fanout_saved = 1.0 -. (float_of_int (q - 1) /. float_of_int (n - 1)) in
      Table.add_row t
        [
          "MinBFT 2-phase";
          string_of_int n;
          string_of_int f;
          string_of_int selected;
          string_of_int full;
          Printf.sprintf "%.0f%%" (saved *. 100.0);
          Printf.sprintf "%.0f%%" (fanout_saved *. 100.0);
          "~50%";
        ];
      verdicts :=
        Verdict.make
          (Printf.sprintf "MinBFT n=%d: selected quorum cheaper than full replication" n)
          (selected < full)
        :: Verdict.make
             (Printf.sprintf "MinBFT n=%d: fan-out saving is the paper's ~1/2" n)
             (Float.abs (fanout_saved -. 0.5) <= 0.10)
        :: !verdicts)
    [ 1; 2; 3 ];
  (t, List.rev !verdicts)

let e8_flows () =
  let buf = Buffer.create 1024 in
  let happy_verdicts =
    let c =
      Xcluster.create (config ~mode:Replica.Enumeration ~n:5 ~f:2 ~timeout:(ms 1000))
    in
    let tr = Qs_sim.Trace.create () in
    Qs_sim.Trace.attach tr ~label:(fun m -> Xmsg.tag m.Xmsg.body) (Xcluster.net c);
    let r = Xcluster.submit c "fig2" in
    Xcluster.run c;
    Buffer.add_string buf "--- Fig. 2: XPaxos normal case (n=5, f=2, group {p1,p2,p3}) ---\n";
    Buffer.add_string buf (Qs_sim.Trace.render tr);
    Buffer.add_string buf "\n\n";
    let entries = Qs_sim.Trace.entries tr in
    let sends tag =
      List.length
        (List.filter
           (fun e -> e.Qs_sim.Trace.kind = Qs_sim.Network.Send && e.Qs_sim.Trace.label = tag)
           entries)
    in
    [
      Verdict.make "fig2: request committed" (Xcluster.is_committed c r);
      Verdict.make "fig2: leader sent q-1 PREPAREs" (sends "PREPARE" = 2);
      Verdict.make "fig2: every member sent q-1 COMMITs" (sends "COMMIT" = 6);
    ]
  in
  let fig3_verdicts =
    let c =
      Xcluster.create (config ~mode:Replica.Enumeration ~n:5 ~f:2 ~timeout:(ms 1000))
    in
    let tr = Qs_sim.Trace.create () in
    Qs_sim.Trace.attach tr ~label:(fun m -> Xmsg.tag m.Xmsg.body) (Xcluster.net c);
    (* Delay the leader's link to p3 so its PREPARE arrives after the other
       member's COMMIT (Fig. 3). *)
    Xcluster.delay_link c ~src:0 ~dst:2 ~by:(ms 20);
    let r = Xcluster.submit c "fig3" in
    Xcluster.run c;
    Buffer.add_string buf "--- Fig. 3: delayed PREPARE, COMMIT sent on embedded prepare ---\n";
    Buffer.add_string buf (Qs_sim.Trace.render tr);
    Buffer.add_string buf "\n";
    let entries = Qs_sim.Trace.entries tr in
    let commit_send_by_2 =
      List.find_opt
        (fun e ->
          e.Qs_sim.Trace.kind = Qs_sim.Network.Send
          && e.Qs_sim.Trace.src = 2 && e.Qs_sim.Trace.label = "COMMIT")
        entries
    in
    let prepare_recv_at_2 =
      List.find_opt
        (fun e ->
          e.Qs_sim.Trace.kind = Qs_sim.Network.Delivered
          && e.Qs_sim.Trace.dst = 2 && e.Qs_sim.Trace.label = "PREPARE")
        entries
    in
    let ordered =
      match (commit_send_by_2, prepare_recv_at_2) with
      | Some c2, Some p2 -> c2.Qs_sim.Trace.at < p2.Qs_sim.Trace.at
      | _ -> false
    in
    [
      Verdict.make "fig3: request committed despite the delay" (Xcluster.is_committed c r);
      Verdict.make "fig3: p3 sent COMMIT before receiving the PREPARE" ordered;
    ]
  in
  (Buffer.contents buf, happy_verdicts @ fig3_verdicts)
