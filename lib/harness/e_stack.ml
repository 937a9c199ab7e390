module Table = Qs_stdx.Table
module Stime = Qs_sim.Stime

let ms = Stime.of_ms

let config ~n ~f =
  {
    Heartbeat.n;
    f;
    heartbeat_period = ms 50;
    initial_timeout = ms 120;
    timeout_strategy = Stack.timeout_strategy;
  }

let crash_case ~n ~f =
  let t = Heartbeat.create (config ~n ~f) in
  let crash_at = ms 500 in
  let crashed = List.init f (fun i -> i) in
  List.iter (fun p -> Heartbeat.crash t p crash_at) crashed;
  Heartbeat.run ~until:(ms 4000) t;
  let correct = List.filter (fun p -> not (List.mem p crashed)) (List.init n Fun.id) in
  let conv = Heartbeat.convergence_time t ~correct ~expect_excluded:crashed in
  let changes = Heartbeat.quorum_changes t ~correct in
  (conv, changes, crash_at)

let run () =
  let t =
    Table.create ~title:"E10 (extension): heartbeat stack, crash convergence and equivocation"
      ~columns:
        [
          ("case", Table.Left);
          ("n", Table.Right);
          ("f", Table.Right);
          ("quorum changes", Table.Right);
          ("bound f(f+1)", Table.Right);
          ("converged after crash", Table.Right);
        ]
  in
  let verdicts = ref [] in
  List.iter
    (fun f ->
      let n = (3 * f) + 1 in
      let conv, changes, crash_at = crash_case ~n ~f in
      let latency =
        match conv with
        | Some at when at >= crash_at -> Format.asprintf "%a" Stime.pp (at - crash_at)
        | Some _ -> "0ms"
        | None -> "NO"
      in
      Table.add_row t
        [
          "crash";
          string_of_int n;
          string_of_int f;
          string_of_int changes;
          string_of_int (f * (f + 1));
          latency;
        ];
      verdicts :=
        Verdict.make (Printf.sprintf "crash f=%d: correct processes converge, crashed excluded" f)
          (conv <> None)
        :: Verdict.make
             (Printf.sprintf "crash f=%d: quorum changes within f(f+1)" f)
             (changes <= f * (f + 1))
        :: !verdicts)
    [ 1; 2; 3 ];
  (* E10b: equivocating suspicion rows from INSIDE the quorum (only quorum
     members can force changes, Section IV-A). p0 equivocates through the
     fault DSL's [Equivocate] phase: each in-scope peer receives a row
     inflated with a fake suspicion of itself; the max-merge gossip unifies
     the variants and everyone converges on the union. *)
  let n = 7 and f = 2 in
  let t_eq = Heartbeat.create (config ~n ~f) in
  Heartbeat.inject t_eq
    [
      Qs_faults.Fault.at ~start:(ms 1)
        (Qs_faults.Fault.Equivocate
           { src = 0; scope = List.init (n - 1) (fun i -> i + 1) });
    ];
  (* A real omission gives p1's detector a reason to publish its rows. *)
  Heartbeat.omit_link t_eq ~src:1 ~dst:0 ~from:(ms 300);
  Heartbeat.run ~until:(ms 4000) t_eq;
  let correct = [ 1; 2; 3; 4; 5; 6 ] in
  let agreed = Heartbeat.agreed_quorum t_eq ~correct in
  let changes = Heartbeat.quorum_changes t_eq ~correct in
  let matrices = Heartbeat.matrices_agree t_eq ~correct in
  Table.add_row t
    [
      "equivocation";
      string_of_int n;
      string_of_int f;
      string_of_int changes;
      string_of_int (f * (f + 1));
      (match agreed with Some _ -> "agree" | None -> "NO");
    ];
  verdicts :=
    Verdict.make "equivocation: correct processes still agree on one quorum" (agreed <> None)
    :: Verdict.make "equivocation: matrices converge to the union of the claims" matrices
    :: Verdict.make "equivocation: the equivocator forced at least one change" (changes >= 1)
    :: Verdict.make "equivocation: changes still within f(f+1)" (changes <= f * (f + 1))
    :: !verdicts;
  (t, List.rev !verdicts)
