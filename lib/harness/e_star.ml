module Table = Qs_stdx.Table
module Stime = Qs_sim.Stime
module Star_node = Qs_star.Star_node
module Star_cluster = Qs_star.Star_cluster

let ms = Stime.of_ms

let config ~n ~f =
  {
    Star_node.n;
    f;
    initial_timeout = Stack.initial_timeout;
    timeout_strategy = Stack.timeout_strategy;
  }

let run ?(fs = [ 1; 2; 3 ]) () =
  let t =
    Table.create
      ~title:"E11 (extension): Follower Selection live in a leader-centric star SMR"
      ~columns:
        [
          ("f", Table.Right);
          ("n = 3f+1", Table.Right);
          ("msgs/req 3(q-1)", Table.Right);
          ("crashed leader recovered", Table.Right);
          ("live quorum changes", Table.Right);
          ("bound 6f+2", Table.Right);
        ]
  in
  let verdicts = ref [] in
  List.iter
    (fun f ->
      let n = (3 * f) + 1 in
      let q = n - f in
      (* Happy-path message complexity. *)
      let happy = Star_cluster.create (config ~n ~f) in
      let hr = Star_cluster.submit happy "measure" in
      Star_cluster.run happy;
      let msgs = Star_cluster.message_count happy in
      let happy_ok = Star_cluster.is_committed happy hr && msgs = 3 * (q - 1) in
      (* Crash the initial leader; Algorithm 2 must recover live. *)
      let c = Star_cluster.create (config ~n ~f) in
      Star_cluster.set_fault c 0 Star_node.Mute;
      let r = Star_cluster.submit c ~resubmit_every:(ms 100) "recover" in
      Star_cluster.run ~until:(ms 10_000) c;
      let recovered = Star_cluster.is_committed c r in
      let changes = Star_cluster.max_quorum_epoch c in
      Table.add_row t
        [
          string_of_int f;
          string_of_int n;
          Printf.sprintf "%d" msgs;
          (if recovered then "yes" else "NO");
          string_of_int changes;
          string_of_int ((6 * f) + 2);
        ];
      verdicts :=
        Verdict.make (Printf.sprintf "f=%d: star uses exactly 3(q-1) messages" f) happy_ok
        :: Verdict.make (Printf.sprintf "f=%d: crashed leader recovered live" f) recovered
        :: Verdict.make
             (Printf.sprintf "f=%d: live reconfigurations within 6f+2" f)
             (changes <= (6 * f) + 2)
        :: !verdicts)
    fs;
  (t, List.rev !verdicts)
