(* Command-line front end: run the paper's experiments, or poke at the
   building blocks (Theorem-4 games, follower-selection attacks). *)

open Cmdliner
module Metrics = Qs_obs.Metrics

(* Every subcommand accepts [--metrics[=text|json]]: reset the default
   registry before the workload, run it, then print a deterministic snapshot
   of everything the protocol layers recorded. *)

let metrics_arg =
  let fmt = Arg.enum [ ("text", `Text); ("json", `Json) ] in
  Arg.(
    value
    & opt ~vopt:(Some `Text) (some fmt) None
    & info [ "metrics" ] ~docv:"FMT"
        ~doc:
          "Print a metrics snapshot (counters, gauges, histograms) after the \
           command. $(docv) is $(b,text) (default) or $(b,json).")

let with_metrics fmt f =
  Metrics.reset ();
  let result = f () in
  (match fmt with
   | None -> ()
   | Some `Text ->
     print_endline "== metrics ==";
     print_endline (Metrics.render_text (Metrics.snapshot ()))
   | Some `Json -> print_endline (Metrics.render_json (Metrics.snapshot ())));
  result

let experiment_of_id id =
  match String.lowercase_ascii id with
  | "e1" -> Some (fun () -> Qs_harness.Experiments.e1 ())
  | "e2" -> Some (fun () -> Qs_harness.Experiments.e2 ())
  | "e3" -> Some (fun () -> Qs_harness.Experiments.e3 ())
  | "e4" -> Some (fun () -> Qs_harness.Experiments.e4 ())
  | "e5" -> Some (fun () -> Qs_harness.Experiments.e5 ())
  | "e6" -> Some (fun () -> Qs_harness.Experiments.e6 ())
  | "e7" -> Some (fun () -> Qs_harness.Experiments.e7 ())
  | "e8" -> Some (fun () -> Qs_harness.Experiments.e8 ())
  | "e9" -> Some (fun () -> Qs_harness.Experiments.e9 ())
  | "e10" -> Some (fun () -> Qs_harness.Experiments.e10 ())
  | "e11" -> Some (fun () -> Qs_harness.Experiments.e11 ())
  | "e12" -> Some (fun () -> Qs_harness.Experiments.e12 ())
  | "e14" -> Some (fun () -> Qs_harness.Experiments.e14 ())
  | "e18" -> Some (fun () -> Qs_harness.Experiments.e18 ())
  | _ -> None

let experiment_cmd =
  let id =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID"
          ~doc:
            "Experiment id: e1-e12, e14, e15 (scaling), e16 (churn), e17 \
             (multicore exploration), e18 (selection policies under region \
             loss), or 'all'.")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Trim parameter sweeps (used by CI).")
  in
  let sizes =
    Arg.(
      value & opt_all int []
      & info [ "size" ] ~docv:"N"
          ~doc:
            "Cluster size for the e15 scaling sweep (default 64, 256, 1024) \
             or the e16 churn sweep (default 64, 256); repeatable. Ignored \
             by other experiments.")
  in
  let jobs =
    Arg.(
      value & opt_all int []
      & info [ "jobs" ] ~docv:"J"
          ~doc:
            "Domain count for the e17 exploration sweep (default 1, 2, 4, 8); \
             repeatable. Ignored by other experiments.")
  in
  let run id quick sizes jobs metrics =
    with_metrics metrics (fun () ->
        if String.lowercase_ascii id = "all" then
          if Qs_harness.Experiments.run_and_print_all ~quick () then `Ok ()
          else `Error (false, "some experiment verdicts failed")
        else if String.lowercase_ascii id = "e17" then begin
          let jobs = match jobs with [] -> None | js -> Some js in
          let o = Qs_harness.Experiments.e17 ~quick ?jobs () in
          Qs_harness.Experiments.print o;
          if Qs_harness.Verdict.all_ok o.Qs_harness.Experiments.verdicts then `Ok ()
          else `Error (false, "e17 verdicts failed")
        end
        else if String.lowercase_ascii id = "e15" || String.lowercase_ascii id = "e16"
        then begin
          let id = String.lowercase_ascii id in
          let ns = match sizes with [] -> None | ns -> Some ns in
          let o =
            if id = "e15" then Qs_harness.Experiments.e15 ~quick ?ns ()
            else Qs_harness.Experiments.e16 ~quick ?ns ()
          in
          Qs_harness.Experiments.print o;
          if Qs_harness.Verdict.all_ok o.Qs_harness.Experiments.verdicts then `Ok ()
          else `Error (false, id ^ " verdicts failed")
        end
        else
          match experiment_of_id id with
          | Some f ->
            Qs_harness.Experiments.print (f ());
            `Ok ()
          | None -> `Error (true, Printf.sprintf "unknown experiment %S" id))
  in
  let doc = "Regenerate a paper table/figure (see DESIGN.md section 4)." in
  Cmd.v
    (Cmd.info "experiment" ~doc)
    Term.(ret (const run $ id $ quick $ sizes $ jobs $ metrics_arg))

let attack_cmd =
  let f = Arg.(value & opt int 2 & info [ "f" ] ~doc:"Number of faulty processes.") in
  let n = Arg.(value & opt (some int) None & info [ "n" ] ~doc:"Processes (default 2f+2).") in
  let run f n metrics =
    with_metrics metrics (fun () ->
        let n = Option.value n ~default:((2 * f) + 2) in
        let setup = Qs_adversary.Theorem4.default_setup ~n ~f in
        let game = Qs_adversary.Theorem4.exhaustive setup in
        Printf.printf "Theorem-4 adversary, n=%d f=%d, target C(f+2,2)=%d quorums\n\n" n f
          (Qs_adversary.Theorem4.target ~f);
        List.iteri
          (fun i ((suspector, suspect), quorum) ->
            Printf.printf "%2d. %s suspects %s -> quorum %s\n" (i + 1)
              (Qs_core.Pid.to_string suspector)
              (Qs_core.Pid.to_string suspect)
              (Qs_core.Pid.set_to_string quorum))
          (List.combine game.Qs_adversary.Theorem4.injections game.Qs_adversary.Theorem4.quorums);
        let live = Qs_adversary.Theorem4.replay setup game in
        Printf.printf "\nLive cluster issued %d quorums (+1 initial default = %d).\n" live (live + 1))
  in
  let doc = "Play the Theorem-4 lower-bound adversary against Algorithm 1." in
  Cmd.v (Cmd.info "attack" ~doc) Term.(const run $ f $ n $ metrics_arg)

let follower_cmd =
  let f = Arg.(value & opt int 2 & info [ "f" ] ~doc:"Number of faulty processes.") in
  let run f metrics =
    with_metrics metrics (fun () ->
        let n = (3 * f) + 1 in
        let r = Qs_harness.Leader_attack.run ~n ~f in
        Printf.printf
          "Follower Selection under leader attack: n=%d f=%d\n\
          \  suspicions injected : %d\n\
          \  quorums issued      : %d (bound 6f+2 = %d)\n\
          \  max per epoch       : %d (bound 3f+1 = %d)\n\
          \  epochs entered      : %d\n"
          n f r.Qs_harness.Leader_attack.injections r.Qs_harness.Leader_attack.total_issued
          ((6 * f) + 2)
          r.Qs_harness.Leader_attack.max_per_epoch
          ((3 * f) + 1)
          r.Qs_harness.Leader_attack.epochs)
  in
  let doc = "Attack Follower Selection (Algorithm 2) and report the bounds." in
  Cmd.v (Cmd.info "follower-attack" ~doc) Term.(const run $ f $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* bounds: the Theorem 3/4 quorum-count bounds, with live counters *)

let bounds_cmd =
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Trim the f sweep (used by CI).")
  in
  let run quick metrics =
    with_metrics metrics (fun () ->
        let fs = if quick then [ 1; 2 ] else [ 1; 2; 3; 4 ] in
        let upper = Qs_harness.Experiments.e2 ~fs () in
        let lower = Qs_harness.Experiments.e3 ~fs () in
        Qs_harness.Experiments.print upper;
        print_newline ();
        Qs_harness.Experiments.print lower;
        let ok o = Qs_harness.Verdict.all_ok o.Qs_harness.Experiments.verdicts in
        if ok upper && ok lower then `Ok ()
        else `Error (false, "bound verdicts failed"))
  in
  let doc =
    "Check the per-epoch quorum-count bounds (Theorems 3 and 4) against the \
     adversary; with --metrics the snapshot carries the live per-epoch \
     counters next to the proven bounds."
  in
  Cmd.v (Cmd.info "bounds" ~doc) Term.(ret (const run $ quick $ metrics_arg))

(* ------------------------------------------------------------------ *)
(* simulate: run one protocol integration under a fault scenario *)

let stack_names = List.concat_map (fun (names, _, _) -> names) Qs_harness.Stack.variants

let simulate_cmd =
  let protocol =
    Arg.(
      value
      & opt (enum (List.map (fun n -> (n, n)) stack_names)) "xpaxos-qs"
      & info [ "protocol" ] ~doc:"Which integration to run.")
  in
  let f = Arg.(value & opt int 2 & info [ "f" ] ~doc:"Failure budget.") in
  let mute =
    Arg.(value & opt_all int [] & info [ "mute" ] ~doc:"Mute this replica (repeatable, 0-based).")
  in
  let requests = Arg.(value & opt int 5 & info [ "requests" ] ~doc:"Client requests to submit.") in
  let until = Arg.(value & opt int 10_000 & info [ "until" ] ~doc:"Simulated milliseconds to run.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Simulation seed.") in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Log protocol events to stderr.")
  in
  let run protocol f mute requests until seed verbose metrics =
    with_metrics metrics @@ fun () ->
    if verbose then Qs_stdx.Debug.enable ();
    let _, (module S : Qs_harness.Stack.STACK), variant =
      Option.get (Qs_harness.Stack.find protocol)
    in
    let c = S.create ~n:(S.default_n ~f) ~f ~seed:(Int64.of_int seed) variant in
    List.iter (fun p -> S.set_mute c p true) mute;
    let ms = Qs_sim.Stime.of_ms in
    let ops = List.init requests (fun i -> Printf.sprintf "op%d" i) in
    let rs = List.map (S.C.submit c ~resubmit_every:(ms 100)) ops in
    S.C.run ~until:(ms until) c;
    Printf.printf "%s: committed %d/%d requests, %d messages%s\n" S.name
      (List.length (List.filter (S.C.is_committed c) rs))
      requests (S.C.message_count c) (S.summary c)
  in
  let doc = "Run one protocol integration under a fault scenario in the simulator." in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(const run $ protocol $ f $ mute $ requests $ until $ seed $ verbose $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* chaos: seeded fault-injection campaigns with the online monitor *)

let chaos_cmd =
  let module Chaos = Qs_harness.Chaos in
  let module Campaign = Qs_faults.Campaign in
  let protocol =
    Arg.(
      value
      & opt string "all"
      & info [ "protocol" ] ~docv:"STACK"
          ~doc:
            "Stack to attack: $(b,xpaxos-enum), $(b,xpaxos-qs), $(b,pbft), \
             $(b,minbft), $(b,chain), $(b,star), or $(b,all).")
  in
  let seed =
    Arg.(
      value & opt int 4242
      & info [ "seed" ] ~doc:"Campaign seed. Same seed, same schedules, same verdicts.")
  in
  let runs =
    Arg.(value & opt int 20 & info [ "runs" ] ~doc:"Schedules to generate per stack.")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Few runs over a short horizon (used by CI smoke jobs).")
  in
  let out_of_model =
    Arg.(
      value & flag
      & info [ "out-of-model" ]
          ~doc:
            "Generate schedules exceeding the failure budget (> f blamed \
             processes); only core SMR safety is enforced, liveness is not.")
  in
  let amnesia =
    Arg.(
      value & flag
      & info [ "amnesia" ]
          ~doc:
            "Make half the generated crashes amnesia crashes: volatile state \
             is wiped at the recovery point and the process restarts from its \
             durable snapshot, rejoining via CRDT state transfer. The monitor \
             additionally enforces the recovery invariants.")
  in
  let byz =
    Arg.(
      value & flag
      & info [ "byz" ]
          ~doc:
            "Arm the commission-fault plane: blamed processes may \
             equivocate their suspicion rows, slander peers with forged \
             frames, tamper with link payloads or replay stale ones. \
             Signed-evidence stores convict provable misbehavers and \
             permanently exclude them from quorums; the monitor checks \
             that no correct process is ever proof-excluded and that \
             proven equivocators leave the quorums for good.")
  in
  let churn =
    Arg.(
      value & flag
      & info [ "churn" ]
          ~doc:
            "Arm the membership plane: the campaign runs one universe size \
             up with a spare process that may join mid-run (bootstrapping \
             dormant through the rejoin plane), faulty members may leave \
             after a graceful anti-entropy handoff, and evidence \
             convictions propose the config change permanently ejecting \
             the culprit. Every change bumps the membership epoch on all \
             member selectors and the monitor enforces the cross-epoch \
             invariants (stale-config, joiner-quorum, ejected-quorum).")
  in
  let correlated =
    Arg.(
      value & flag
      & info [ "correlated" ]
          ~doc:
            "Arm correlated whole-fault-domain failures over the stack's \
             canonical region topology: region partitions, rack losses and \
             gray (slow) regions, each blaming the label's entire member \
             set and emitted only while the schedule's blame set fits the \
             failure budget. The monitor's quorum-intersection invariant \
             applies as always.")
  in
  let policy =
    Arg.(
      value
      & opt string "lex"
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Selection policy installed on every selector: $(b,lex) (the \
             paper's rule, default), $(b,lottery) or $(b,lottery:SEED) (a \
             deterministic seeded draw rotating quorum composition per \
             epoch), $(b,diverse) or $(b,diverse:CAP) (per-region caps over \
             the stack's canonical topology, bounding any single region's \
             quorum seats), or a full \
             $(b,diverse:CAP:LABEL,LABEL,...) spec.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.") in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"J"
          ~doc:
            "Execute the campaign's runs on J domains (sequential fallback \
             on OCaml 4.14). Reports are byte-identical for every J: \
             schedules are pre-drawn in index order and the lowest failing \
             run wins regardless of which worker finishes first.")
  in
  let run protocol seed runs quick out_of_model amnesia byz churn correlated policy json
      jobs metrics =
    with_metrics metrics @@ fun () ->
    let stacks =
      if String.lowercase_ascii protocol = "all" then Ok Chaos.all
      else
        match Chaos.of_name protocol with
        | Some st -> Ok [ st ]
        | None -> Error (Printf.sprintf "unknown protocol %S" protocol)
    in
    match stacks with
    | Error msg -> `Error (true, msg)
    | Ok stacks ->
      let runs = if quick then min runs 4 else runs in
      (* [diverse] caps are resolved against each stack's own canonical
         topology, so one flag value serves every (n, f). *)
      let policy_for params =
        let module P = Qs_core.Selection_policy in
        let q = params.Chaos.n - params.Chaos.f in
        let validated p =
          try
            P.validate p ~n:params.Chaos.n ~q;
            Ok p
          with Invalid_argument m -> Error m
        in
        (* Omitting the cap picks the smallest one the stack's quorum size
           can satisfy over its canonical topology. *)
        let default_cap topo =
          let k = List.length (Qs_core.Topology.labels topo) in
          (q + k - 1) / k
        in
        match String.split_on_char ':' (String.trim policy) with
        | [ "lex" ] -> Ok P.Lex_first
        | [ "lottery" ] -> Ok (P.Seeded_lottery { seed = Int64.of_int seed })
        | [ "lottery"; s ] -> (
          match Int64.of_string_opt s with
          | Some seed -> Ok (P.Seeded_lottery { seed })
          | None -> Error (Printf.sprintf "bad --policy lottery seed %S" s))
        | [ "diverse" ] ->
          let topology = Chaos.topology_for params in
          validated (P.Diversity_capped { topology; cap = default_cap topology })
        | [ "diverse"; c ] -> (
          match int_of_string_opt c with
          | Some cap when cap > 0 ->
            validated (P.Diversity_capped { topology = Chaos.topology_for params; cap })
          | _ -> Error (Printf.sprintf "bad --policy diverse cap %S" c))
        | _ -> (
          match P.of_string (String.trim policy) with
          | Some p -> validated p
          | None -> Error (Printf.sprintf "unknown --policy %S" policy))
      in
      let params st =
        let p = if churn then Chaos.churn_params st else Chaos.default_params st in
        let p =
          if quick then { p with Chaos.horizon = Qs_sim.Stime.of_ms 4_000 } else p
        in
        Result.map (fun policy -> { p with Chaos.policy }) (policy_for p)
      in
      let resolved = List.map (fun st -> (st, params st)) stacks in
      (match List.find_map (fun (_, p) -> Result.fold ~ok:(fun _ -> None) ~error:Option.some p) resolved with
      | Some msg -> `Error (true, msg)
      | None ->
      let reports =
        List.map
          (fun (st, params) ->
            ( st,
              Chaos.campaign st ~params:(Result.get_ok params) ~out_of_model ~amnesia
                ~byz ~churn ~correlated ~runs ~jobs ~seed () ))
          resolved
      in
      if json then
        print_endline
          (Qs_obs.Json.render_pretty
             (Qs_obs.Json.Obj
                [
                  ("seed", Qs_obs.Json.Int seed);
                  ( "campaigns",
                    Qs_obs.Json.List
                      (List.map
                         (fun (st, r) ->
                           Qs_obs.Json.Obj
                             (("stack", Qs_obs.Json.String (Chaos.name st))
                             ::
                             (match Campaign.to_json r with
                              | Qs_obs.Json.Obj fields -> fields
                              | other -> [ ("report", other) ])))
                         reports) );
                ]))
      else
        List.iter
          (fun (st, r) ->
            Printf.printf "=== %s ===\n%s\n" (Chaos.name st) (Campaign.render r))
          reports;
      if List.for_all (fun (_, r) -> Campaign.ok r) reports then `Ok ()
      else `Error (false, "chaos campaign found violations"))
  in
  let doc =
    "Run seeded fault-injection campaigns against the protocol stacks, with \
     the online invariant monitor checking safety (prefix consistency, \
     exactly-once, Theorem-3/9 quorum bounds, no-suspicion) during every run \
     and termination afterwards. Failing schedules are shrunk to a minimal \
     reproduction; --seed N replays a campaign exactly."
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      ret
        (const run $ protocol $ seed $ runs $ quick $ out_of_model $ amnesia $ byz
        $ churn $ correlated $ policy $ json $ jobs $ metrics_arg))

(* ------------------------------------------------------------------ *)
(* runtime-chaos / serve: the real TCP runtime *)

let runtime_chaos_cmd =
  let module Cluster = Qs_runtime.Cluster in
  let module Fault = Qs_faults.Fault in
  let n_arg =
    Arg.(value & opt int 4 & info [ "n" ] ~doc:"Universe size (replica count).")
  in
  let f_arg = Arg.(value & opt int 1 & info [ "f" ] ~doc:"Failure budget.") in
  let requests =
    Arg.(
      value & opt int 5
      & info [ "requests" ] ~doc:"Sequential client requests to commit.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ]
          ~doc:
            "Seed for the transport jitter/loss streams and random schedule \
             generation. Frame loss is a seeded per-link fraction, so the \
             counters are reproducible in distribution, not byte-identical.")
  in
  let base_port =
    Arg.(
      value & opt (some int) None
      & info [ "base-port" ] ~docv:"PORT"
          ~doc:
            "First loopback port; replica $(b,i) listens on PORT+i. Default: \
             fresh ephemeral ports.")
  in
  let mode =
    Arg.(
      value
      & opt (enum [ ("enum", `Enum); ("qs", `Qs) ]) `Qs
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Group formation: $(b,qs) (quorum selection, default) or \
             $(b,enum) (view enumeration).")
  in
  let schedule_arg =
    Arg.(
      value & opt string ""
      & info [ "schedule" ] ~docv:"SCHED"
          ~doc:
            "Fault schedule in the DSL's rendered syntax (same format the \
             chaos regression files use), played against the live sockets \
             by the nemesis. Commission and churn kinds are unsupported on \
             the real transport and counted, not silently dropped.")
  in
  let random_faults =
    Arg.(
      value & flag
      & info [ "random-faults" ]
          ~doc:
            "Generate an in-model schedule from --seed instead of \
             --schedule (crashes, omissions, delays over a short horizon).")
  in
  let duration_ms =
    Arg.(
      value & opt int 0
      & info [ "duration-ms" ]
          ~doc:"Keep the cluster running at least this long (0: workload-bound).")
  in
  let request_timeout_ms =
    Arg.(
      value & opt int 4000
      & info [ "request-timeout-ms" ] ~doc:"Per-request commit deadline.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.") in
  let run n f requests seed base_port mode schedule random_faults duration_ms
      request_timeout_ms json metrics =
    with_metrics metrics @@ fun () ->
    if n <= 2 * f then `Error (true, "need n > 2f")
    else
      let schedule =
        if random_faults then
          Fault.gen
            (Qs_stdx.Prng.create (Int64.of_int seed))
            ~n ~f
            ~profile:(Fault.default_profile ~horizon:(Qs_sim.Stime.of_ms 3_000))
            ()
        else
          try Fault.of_string ~n schedule
          with Invalid_argument msg -> raise (Failure msg)
      in
      match
        Cluster.run ~seed:(Int64.of_int seed) ?base_port
          ~mode:
            (match mode with
             | `Enum -> Qs_xpaxos.Replica.Enumeration
             | `Qs -> Qs_xpaxos.Replica.Quorum_selection)
          ~requests ~request_timeout_ms ~duration_ms ~schedule ~n ~f ()
      with
      | exception Failure msg -> `Error (true, msg)
      | report ->
        if json then
          print_endline (Qs_obs.Json.render_pretty (Cluster.report_to_json report))
        else begin
          Printf.printf "schedule: %s\n" (Fault.to_string schedule);
          Printf.printf
            "committed %d/%d requests; prefix agreement: %b; violations: %d \
             (%d checks, %d commits observed, %d recoveries)\n"
            report.Cluster.committed report.Cluster.requests_submitted
            report.Cluster.prefix_agreement
            (List.length report.Cluster.violations)
            report.Cluster.monitor_checks report.Cluster.commits_observed
            report.Cluster.recoveries_completed;
          List.iter
            (fun v ->
              print_endline
                (Qs_obs.Json.render (Qs_faults.Monitor.violation_to_json v)))
            report.Cluster.violations;
          Array.iteri
            (fun i (s : Qs_runtime.Tcp.stats) ->
              Printf.printf
                "  replica %d: sent=%d delivered=%d shed=%d dup=%d corrupt=%d \
                 nemesis_dropped=%d reconnects=%d\n"
                i s.Qs_runtime.Tcp.sent s.Qs_runtime.Tcp.delivered
                s.Qs_runtime.Tcp.shed s.Qs_runtime.Tcp.dup_dropped
                s.Qs_runtime.Tcp.corrupt_rejected s.Qs_runtime.Tcp.nemesis_dropped
                s.Qs_runtime.Tcp.reconnects)
            report.Cluster.stats
        end;
        if
          report.Cluster.violations = []
          && report.Cluster.prefix_agreement
          && report.Cluster.committed = report.Cluster.requests_submitted
        then `Ok ()
        else `Error (false, "runtime campaign failed its verdicts")
  in
  let doc =
    "Run the XPaxos/quorum-selection stack over real loopback TCP — the same \
     protocol cores the simulator drives, behind the runtime's resilient \
     transport (reconnect with backoff, bounded queues, dedup, keepalives) — \
     with a live nemesis playing a fault schedule against the sockets and \
     the online invariant monitor verdicting the run's journal."
  in
  Cmd.v
    (Cmd.info "runtime-chaos" ~doc)
    Term.(
      ret
        (const run $ n_arg $ f_arg $ requests $ seed $ base_port $ mode
       $ schedule_arg $ random_faults $ duration_ms $ request_timeout_ms $ json
       $ metrics_arg))

let serve_cmd =
  let module Cluster = Qs_runtime.Cluster in
  let me_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "me" ] ~docv:"I" ~doc:"This replica's process id.")
  in
  let peers =
    Arg.(
      required
      & opt (some string) None
      & info [ "peers" ] ~docv:"HOST:PORT,..."
          ~doc:
            "Comma-separated listen addresses of $(b,all) replicas, in pid \
             order (including this one's).")
  in
  let f_arg = Arg.(value & opt int 1 & info [ "f" ] ~doc:"Failure budget.") in
  let mode =
    Arg.(
      value
      & opt (enum [ ("enum", `Enum); ("qs", `Qs) ]) `Qs
      & info [ "mode" ] ~docv:"MODE"
          ~doc:"Group formation: $(b,qs) (default) or $(b,enum).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Transport jitter seed.")
  in
  let duration_ms =
    Arg.(
      value & opt int 0
      & info [ "duration-ms" ] ~doc:"Exit after this long (0: run until killed).")
  in
  let parse_addr spec =
    match String.rindex_opt spec ':' with
    | None -> Error (Printf.sprintf "bad address %S (want HOST:PORT)" spec)
    | Some i -> (
      let host = String.sub spec 0 i in
      let port = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt port with
      | None -> Error (Printf.sprintf "bad port in %S" spec)
      | Some port -> (
        match Unix.inet_addr_of_string host with
        | addr -> Ok (Unix.ADDR_INET (addr, port))
        | exception Failure _ -> (
          match Unix.gethostbyname host with
          | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
            Error (Printf.sprintf "cannot resolve %S" host)
          | { Unix.h_addr_list; _ } -> Ok (Unix.ADDR_INET (h_addr_list.(0), port)))))
  in
  let run me peers f mode seed duration_ms metrics =
    with_metrics metrics @@ fun () ->
    let specs = String.split_on_char ',' peers in
    let addrs =
      List.fold_left
        (fun acc spec ->
          match (acc, parse_addr (String.trim spec)) with
          | Error _, _ -> acc
          | Ok _, Error msg -> Error msg
          | Ok l, Ok a -> Ok (a :: l))
        (Ok []) specs
    in
    match addrs with
    | Error msg -> `Error (true, msg)
    | Ok rev ->
      let addrs = Array.of_list (List.rev rev) in
      let n = Array.length addrs in
      if n <= 2 * f then `Error (true, "need n > 2f")
      else if me < 0 || me >= n then `Error (true, "--me out of range")
      else begin
        let fabric = Cluster.T.create ~addrs ~seed:(Int64.of_int seed) () in
        Cluster.T.start fabric ~me;
        let auth = Qs_crypto.Auth.create n in
        let config =
          {
            Qs_xpaxos.Replica.n;
            f;
            mode =
              (match mode with
               | `Enum -> Qs_xpaxos.Replica.Enumeration
               | `Qs -> Qs_xpaxos.Replica.Quorum_selection);
            initial_timeout = Qs_sim.Stime.of_ms 150;
            timeout_strategy = Qs_harness.Stack.timeout_strategy;
          }
        in
        let node =
          Cluster.N.create ~config ~me ~auth ~transport:fabric
            ~store:(Qs_recovery.Store.create ()) ()
        in
        Cluster.N.start_gossip node;
        Printf.printf "replica %d/%d listening; peers: %s\n%!" me n peers;
        let started = Unix.gettimeofday () in
        let deadline =
          if duration_ms > 0 then Some (started +. (float_of_int duration_ms /. 1000.))
          else None
        in
        let rec loop last_report =
          let now = Unix.gettimeofday () in
          if match deadline with Some d -> now >= d | None -> false then ()
          else begin
            Thread.delay 0.2;
            let last_report =
              if now -. last_report >= 5.0 then begin
                let r = Cluster.N.replica node in
                let s = Cluster.T.stats fabric ~me in
                Printf.printf
                  "view=%d executed=%d sent=%d delivered=%d reconnects=%d\n%!"
                  (Qs_xpaxos.Replica.view r)
                  (List.length (Qs_xpaxos.Replica.executed r))
                  s.Qs_runtime.Tcp.sent s.Qs_runtime.Tcp.delivered
                  s.Qs_runtime.Tcp.reconnects;
                now
              end
              else last_report
            in
            loop last_report
          end
        in
        loop started;
        Cluster.T.stop fabric ~me;
        `Ok ()
      end
  in
  let doc =
    "Run one live replica process over real TCP: the same XPaxos/quorum-\
     selection core the simulator drives, served behind the runtime \
     transport. Point $(b,--peers) at all replicas' addresses (pid order) \
     and start one $(b,serve) per pid — on one host or several."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      ret (const run $ me_arg $ peers $ f_arg $ mode $ seed $ duration_ms $ metrics_arg))

(* ------------------------------------------------------------------ *)
(* mc: small-scope model checking / schedule exploration *)

let mc_cmd =
  let module MC = Qs_harness.Modelcheck in
  let module Engine = Qs_mc.Engine in
  let protocol =
    Arg.(
      value
      & opt string "xpaxos"
      & info [ "protocol" ] ~docv:"PROTO"
          ~doc:
            ("System to explore: $(b,quorum) (bare Algorithm 1), $(b,follower) \
              (Algorithm 2 with an emulated failure detector), or a replica \
              stack as $(b,simulate) runs it: "
            ^ String.concat ", " stack_names ^ "."))
  in
  let n =
    Arg.(
      value & opt (some int) None
      & info [ "n" ] ~doc:"Processes (keep small: 4 or 5). Default 4; minbft runs 2f+1.")
  in
  let f = Arg.(value & opt int 1 & info [ "f" ] ~doc:"Failure budget.") in
  let depth =
    Arg.(
      value & opt int 6
      & info [ "depth" ] ~doc:"Schedule-length bound for the exhaustive exploration.")
  in
  let inject =
    Arg.(
      value & opt_all string []
      & info [ "inject" ] ~docv:"P:S1,S2"
          ~doc:
            "Initial ⟨SUSPECTED⟩ event: process $(i,P) starts out suspecting \
             $(i,S1,S2,...) (quorum and follower protocols only; a replica \
             stack has no hook to seed one). The form $(b,amnesia:P) instead \
             grants process \
             $(i,P) one amnesia crash, $(b,equivocate:P) one equivocation \
             (two conflicting validly-signed rows to two peers), and \
             $(b,churn:P) one atomic leave-and-rejoin membership change \
             (config-epoch bump on every process, fresh slot for $(i,P)), \
             and $(b,region:M1,M2) one correlated whole-region loss (every \
             listed member goes mute at once, their inbound in-flight \
             messages die), each explored at every point of every schedule \
             (quorum protocol only). Repeatable. Defaults to the \
             protocol's canonical scenario when omitted.")
  in
  let crash =
    Arg.(
      value & opt_all int []
      & info [ "crash" ] ~docv:"P" ~doc:"Crash process $(i,P) from the start. Repeatable.")
  in
  let requests =
    Arg.(
      value & opt int (-1)
      & info [ "requests" ]
          ~doc:"Client requests submitted up front (replica stacks; default 1).")
  in
  let seeded_bug =
    Arg.(
      value & flag
      & info [ "seeded-bug" ]
          ~doc:
            "Arm the test-only undersized-quorum bug in Algorithm 1, so the \
             checker demonstrably finds and shrinks a real counterexample.")
  in
  let random =
    Arg.(
      value & flag
      & info [ "random" ]
          ~doc:
            "Randomized schedule fuzzing instead of exhaustive exploration \
             (same choice points, seeded walks).")
  in
  let seed = Arg.(value & opt int 4242 & info [ "seed" ] ~doc:"Random-mode walk seed.") in
  let iters = Arg.(value & opt int 200 & info [ "iters" ] ~doc:"Random-mode walk count.") in
  let no_por =
    Arg.(
      value & flag
      & info [ "no-por" ]
          ~doc:"Disable the sleep-set partial-order reduction (for debugging/benchmarks).")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.") in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs" ] ~docv:"J"
          ~doc:
            "Shard the exploration across $(docv) domains (sequential \
             fallback on OCaml 4.14). Random mode is byte-identical across \
             any $(docv). Exhaustive mode agrees with the sequential \
             explorer on the visited state set and the violations found \
             where the state keys are exact ($(b,quorum), $(b,follower)); \
             a protocol stack's key leaves out timers and the simulator \
             queue, so its visited and quiescent counts may differ with \
             the root partition. Omitted: the legacy single-domain engine \
             runs. A $(docv) above the host's recommended domain count is \
             clamped to it, with a note on stderr.")
  in
  let sym =
    Arg.(
      value & flag
      & info [ "sym" ]
          ~doc:
            "Prune on the symmetry-canonical fingerprint, collapsing states \
             identical up to a relabeling of the processes no crash, fault \
             or injection distinguishes. Exhaustive mode of the quorum \
             protocol only, with at least two such processes; anywhere \
             else it is a usage error.")
  in
  let parse_injections specs =
    List.fold_left
      (fun acc s ->
        match acc with
        | Error _ -> acc
        | Ok (inj, faults) -> (
          match MC.fault_of_string s with
          | exception Invalid_argument msg -> Error (Printf.sprintf "--inject: %s" msg)
          | Some fault -> Ok (inj, fault :: faults)
          | None -> (
            match MC.injection_of_string s with
            | Some i -> Ok (i :: inj, faults)
            | None ->
              Error
                (Printf.sprintf
                   "bad --inject %S (want P:S1,S2, amnesia:P, equivocate:P, churn:P or \
                    region:M1,M2)"
                   s))))
      (Ok ([], [])) specs
  in
  let run protocol n f depth inject crash requests seeded_bug random seed iters no_por json
      jobs sym metrics =
    with_metrics metrics @@ fun () ->
    match MC.protocol_of_name protocol with
    | None -> `Error (true, Printf.sprintf "unknown protocol %S" protocol)
    | Some proto -> (
      match parse_injections inject with
      | Error msg -> `Error (true, msg)
      | Ok (injections, faults) -> (
        let d = MC.default_spec proto in
        let spec =
          {
            d with
            MC.n = Option.value n ~default:d.MC.n;
            f;
            injections =
              (if injections = [] && faults = [] && crash = [] then d.MC.injections
               else List.rev injections);
            crashes = crash;
            faults = List.rev faults;
            requests = (if requests < 0 then d.MC.requests else requests);
            seeded_bug;
          }
        in
        match
          try Ok (MC.make spec) with Invalid_argument msg -> Error msg
        with
        | Error msg -> `Error (true, msg)
        | Ok _ when (match jobs with Some j -> j < 1 | None -> false) ->
          `Error (true, "--jobs must be >= 1")
        | Ok _ when (not random) && depth < 1 -> `Error (true, "--depth must be >= 1")
        | Ok _ when sym && random ->
          `Error (true, "--sym prunes exhaustive search; it does not combine with --random")
        | Ok { Engine.symmetry = None; _ } when sym ->
          (* Kept under one line: some Cmdliner versions reflow long errors. *)
          `Error (true, "--sym: no symmetry here (quorum protocol, two or more free pids)")
        | Ok system ->
          let mk () = MC.make spec in
          let recommended = Qs_stdx.Domainpool.recommended () in
          (* Only the domain count is clamped: the branch below still
             follows the --jobs given, so the report is the one it names. *)
          let clamp j =
            if j > recommended then
              Printf.eprintf "qsel mc: --jobs %d clamped to the %d recommended domain%s\n%!" j
                recommended
                (if recommended = 1 then "" else "s");
            min j recommended
          in
          let report, shards =
            match (random, jobs) with
            | true, None -> (Engine.random ~seed ~iters system, None)
            | true, Some j ->
              (* Any --jobs selects the per-walk-seeded sharded fuzzer; its
                 reports are byte-identical for every J (but differently
                 seeded than the legacy single-stream walker above). *)
              let r = Qs_mc.Shard.random ~jobs:(clamp j) ~seed ~iters mk in
              Qs_mc.Shard.observe r;
              (r.Qs_mc.Shard.report, Some r.Qs_mc.Shard.shards)
            | false, (None | Some 1) ->
              (Engine.explore ~por:(not no_por) ~sym ~depth system, None)
            | false, Some j ->
              let r = Qs_mc.Shard.explore ~jobs:(clamp j) ~por:(not no_por) ~sym ~depth mk in
              Qs_mc.Shard.observe r;
              (r.Qs_mc.Shard.report, Some r.Qs_mc.Shard.shards)
          in
          Qs_core.Quorum_select.test_buggy_quorum_size := false;
          if json then
            print_endline
              (Qs_obs.Json.render_pretty
                 (match Engine.report_to_json report with
                 | Qs_obs.Json.Obj fields ->
                   Qs_obs.Json.Obj (("protocol", Qs_obs.Json.String (MC.protocol_name proto)) :: fields)
                 | other -> other))
          else begin
            Printf.printf "mc %s  n=%d f=%d%s%s\n" (MC.protocol_name proto) spec.MC.n f
              (if spec.MC.crashes = [] then ""
               else
                 " crash={"
                 ^ String.concat "," (List.map string_of_int spec.MC.crashes)
                 ^ "}")
              (if seeded_bug then "  [seeded bug armed]" else "");
            print_endline (Engine.report_to_string report);
            match shards with
            | None -> ()
            | Some ss ->
              List.iter
                (fun s ->
                  Printf.printf
                    "  shard %d: states=%d transitions=%d tasks=%d steals=%d \
                     stalls=%d elapsed=%.3fs (%.0f states/s)\n"
                    s.Qs_mc.Shard.shard s.Qs_mc.Shard.states
                    s.Qs_mc.Shard.transitions s.Qs_mc.Shard.tasks
                    s.Qs_mc.Shard.steals s.Qs_mc.Shard.stalls
                    s.Qs_mc.Shard.elapsed_s
                    (if s.Qs_mc.Shard.elapsed_s > 0. then
                       float_of_int s.Qs_mc.Shard.states /. s.Qs_mc.Shard.elapsed_s
                     else 0.))
                ss
          end;
          if Engine.ok report then `Ok ()
          else `Error (false, "model checker found violations")))
  in
  let doc =
    "Exhaustively explore every message-delivery interleaving of a small \
     configuration (or fuzz random schedules with --random), checking the \
     paper's invariants — quorum size n-f, the Theorem-3/9 per-epoch bounds, \
     no-suspicion, prefix consistency — at every reached state. \
     Counterexamples are shrunk to minimal schedules replayable from \
     test/regressions/."
  in
  Cmd.v (Cmd.info "mc" ~doc)
    Term.(
      ret
        (const run $ protocol $ n $ f $ depth $ inject $ crash $ requests $ seeded_bug $ random
       $ seed $ iters $ no_por $ json $ jobs $ sym $ metrics_arg))

let () =
  let doc = "Quorum Selection for Byzantine Fault Tolerance - reproduction toolkit" in
  let info = Cmd.info "qsel" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            experiment_cmd;
            attack_cmd;
            follower_cmd;
            bounds_cmd;
            simulate_cmd;
            chaos_cmd;
            mc_cmd;
            runtime_chaos_cmd;
            serve_cmd;
          ]))
