module Table = Qs_stdx.Table
module Stime = Qs_sim.Stime
module Timeout = Qs_fd.Timeout
module Chain_node = Qs_bchain.Chain_node
module Chain_cluster = Qs_bchain.Chain_cluster

let ms = Stime.of_ms

let chain_config ~n ~f ~timeout =
  {
    Chain_node.n;
    f;
    initial_timeout = timeout;
    timeout_strategy = Stack.timeout_strategy;
  }

let chain_cluster ~n ~f = Chain_cluster.create (chain_config ~n ~f ~timeout:(ms 1000))

let star_cluster ~n ~f =
  Qs_star.Star_cluster.create
    { Qs_star.Star_node.n; f; initial_timeout = ms 1000; timeout_strategy = Timeout.Fixed }

let xpaxos_cluster ~n ~f =
  Qs_xpaxos.Xcluster.create
    {
      Qs_xpaxos.Replica.n;
      f;
      mode = Qs_xpaxos.Replica.Enumeration;
      initial_timeout = ms 1000;
      timeout_strategy = Timeout.Fixed;
    }

let run () =
  let t =
    Table.create
      ~title:"E9 (extension): chain communication vs all-to-all, messages per request"
      ~columns:
        [
          ("n", Table.Right);
          ("f", Table.Right);
          ("q", Table.Right);
          ("chain 2(q-1)", Table.Right);
          ("XPaxos quorum q^2-1", Table.Right);
          ("XPaxos all n^2-1", Table.Right);
          ("chain vs quorum", Table.Right);
          ("latency chain/star/xpaxos", Table.Right);
        ]
  in
  let verdicts = ref [] in
  List.iter
    (fun f ->
      let n = (3 * f) + 1 in
      let q = n - f in
      let per_request = Stack.messages_per_request and latency = Stack.commit_latency in
      let chain = per_request (module Chain_cluster) (chain_cluster ~n ~f) in
      let quorum = per_request (module Qs_xpaxos.Xcluster) (xpaxos_cluster ~n ~f) in
      let full = per_request (module Qs_xpaxos.Xcluster) (xpaxos_cluster ~n ~f:0) in
      (* Commit latency of one request over 1ms links: hop counts, measured. *)
      let lat_chain = latency (module Chain_cluster) (chain_cluster ~n ~f) in
      let lat_star = latency (module Qs_star.Star_cluster) (star_cluster ~n ~f) in
      let lat_x = latency (module Qs_xpaxos.Xcluster) (xpaxos_cluster ~n ~f) in
      Table.add_row t
        [
          string_of_int n;
          string_of_int f;
          string_of_int q;
          string_of_int chain;
          string_of_int quorum;
          string_of_int full;
          Printf.sprintf "%.0f%%" (100.0 *. (1.0 -. (float_of_int chain /. float_of_int quorum)));
          Format.asprintf "%a / %a / %a" Stime.pp lat_chain Stime.pp lat_star Stime.pp lat_x;
        ];
      verdicts :=
        Verdict.make (Printf.sprintf "n=%d: chain uses exactly 2(q-1) messages" n)
          (chain = 2 * (q - 1))
        :: Verdict.make
             (Printf.sprintf "n=%d: all-to-all quorum uses q^2-1" n)
             (quorum = (q * q) - 1)
        :: Verdict.make (Printf.sprintf "n=%d: chain beats all-to-all" n) (chain < quorum)
        :: Verdict.make
             (Printf.sprintf "n=%d: the message saving costs latency (chain >= xpaxos)" n)
             (lat_chain >= lat_x && lat_chain = Stime.of_ms (2 * (q - 1)))
        :: Verdict.make
             (Printf.sprintf "n=%d: star sits between (3 hops)" n)
             (lat_star = Stime.of_ms 3)
        :: !verdicts)
    [ 1; 2; 3 ];
  (* Recovery: the chain re-forms around a mute member via quorum
     selection. *)
  let c = Chain_cluster.create (chain_config ~n:7 ~f:2 ~timeout:(ms 20)) in
  Chain_cluster.set_fault c 2 Chain_node.Mute;
  let r = Chain_cluster.submit c ~resubmit_every:(ms 100) "recover" in
  Chain_cluster.run ~until:(ms 8000) c;
  verdicts :=
    Verdict.make "re-chaining: request commits despite a mute chain member"
      (Chain_cluster.is_committed c r)
    :: Verdict.make "re-chaining: mute member excluded from the new chain"
         (not (List.mem 2 (Chain_node.chain (Chain_cluster.replica c 0))))
    :: !verdicts;
  (t, List.rev !verdicts)
