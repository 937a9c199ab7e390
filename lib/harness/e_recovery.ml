module Table = Qs_stdx.Table
module Stime = Qs_sim.Stime

let ms = Stime.of_ms

(* Every scenario follows the same script: warm up with one request, mute an
   active non-leader member at 200ms, submit the probe at 300ms, report the
   probe's commit latency. Timeouts are the stacks' default 25ms with
   exponential backoff, links are 1ms. *)
let timeout = Stack.initial_timeout

let probe_at = ms 300

(* (happy latency, recovery latency option) of one stack at f = 2. *)
let mute_and_probe (module S : Stack.STACK) ~victim =
  let f = 2 in
  let c = S.create ~n:(S.default_n ~f) ~f ~seed:1L Stack.Selecting in
  let warm = S.C.submit c "warm" in
  S.C.run ~until:(ms 200) c;
  let happy = Option.get (S.C.commit_latency c warm) in
  S.set_mute c victim true;
  S.C.run ~until:probe_at c;
  let probe = S.C.submit c ~resubmit_every:(ms 100) "probe" in
  S.C.run ~until:(ms 20_000) c;
  (happy, S.C.commit_latency c probe)

(* Strategy ablation: the same mute-and-probe script on the XPaxos + QS
   stack, but with configurable link delay and timeout strategy. When links
   are slower than a timeout that never adapts, every expectation deadline
   fires a false suspicion, membership churns indefinitely and the probe
   cannot commit; any adapting strategy grows past the real delay after
   finitely many false suspicions and then recovers normally. *)
let xpaxos_recovery ?(delay = Qs_sim.Network.Fixed (ms 1)) ?(initial = timeout)
    ?(horizon = ms 20_000) strategy =
  let config =
    {
      Qs_xpaxos.Replica.n = 5;
      f = 2;
      mode = Qs_xpaxos.Replica.Quorum_selection;
      initial_timeout = initial;
      timeout_strategy = strategy;
    }
  in
  let c = Qs_xpaxos.Xcluster.create ~delay config in
  ignore (Qs_xpaxos.Xcluster.submit c "warm");
  Qs_xpaxos.Xcluster.run ~until:(ms 400) c;
  Qs_xpaxos.Xcluster.set_fault c 1 Qs_xpaxos.Replica.Mute;
  Qs_xpaxos.Xcluster.run ~until:(ms 500) c;
  let probe = Qs_xpaxos.Xcluster.submit c ~resubmit_every:(ms 100) "probe" in
  Qs_xpaxos.Xcluster.run ~until:horizon c;
  Qs_xpaxos.Xcluster.commit_latency c probe

let run () =
  let rows =
    List.map
      (fun (name, stack, victim) -> (name, mute_and_probe stack ~victim))
      [
        ("XPaxos + quorum selection", Stack.xpaxos, 1);
        ("PBFT selected", Stack.pbft, 1);
        ("MinBFT selected (trusted comp.)", Stack.minbft, 1);
        ("Chain (BChain-style)", Stack.chain, 2);
        ("Star + follower selection", Stack.star, 2);
      ]
  in
  let t =
    Table.create
      ~title:"E12 (extension): the price of reacting - recovery latency per integration"
      ~columns:
        [
          ("protocol", Table.Left);
          ("happy-path commit", Table.Right);
          ("commit after member crash", Table.Right);
          ("reaction premium", Table.Right);
        ]
  in
  let verdicts = ref [] in
  List.iter
    (fun (name, (happy, recovery)) ->
      (match recovery with
       | Some r ->
         Table.add_row t
           [
             name;
             Format.asprintf "%a" Stime.pp happy;
             Format.asprintf "%a" Stime.pp r;
             Format.asprintf "%a" Stime.pp (Stime.( - ) r happy);
           ]
       | None ->
         Table.add_row t [ name; Format.asprintf "%a" Stime.pp happy; "NO RECOVERY"; "-" ]);
      verdicts :=
        Verdict.make (name ^ ": recovered") (recovery <> None)
        :: Verdict.make
             (name ^ ": recovery within ~20 timeouts")
             (match recovery with Some r -> r <= 20 * timeout | None -> false)
        :: !verdicts)
    rows;
  (t, List.rev !verdicts)
