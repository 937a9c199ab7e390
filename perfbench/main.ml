(* The benchmark executable: one workload, one seed, one run. Prints every
   metric of the run's kind (end-to-end untraced, per-layer traced) with its
   unit and sample count, then the result as one JSON line. Exits 1 when an
   output check fails. *)

open Perfbench

let usage =
  "main.exe --workload (tcp-steady|sim-failover|mc-explore) --seed N --seconds S --trace 0|1 \
   [--out DIR]"

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 and out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measure for S seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--out", Arg.Set_string out, "DIR write the traced run's spans here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  Spans.on := !trace = 1;
  let seconds = !seconds and seed = !seed in
  let r =
    match !workload with
    | "sim-failover" -> Sim_failover.run ~seed:(Int64.of_int seed) ~seconds
    | "tcp-steady" -> Tcp_steady.run ~seed ~seconds
    | "mc-explore" -> Mc_explore.run ~seed ~seconds
    | w ->
      Printf.eprintf "unknown workload %S\n%s\n" w usage;
      exit 2
  in
  let metrics =
    Metric.select
      (if !Spans.on then Metric.per_layer else Metric.end_to_end)
      r.Metric.metrics
  in
  let finite = List.for_all (fun m -> Float.is_finite m.Metric.value) metrics in
  let checks = r.Metric.checks @ [ ("finite-metrics", finite) ] in
  let correct = List.for_all snd checks in
  Printf.printf "workload %s seed %d trace %d nproc %d\n" r.Metric.workload seed !trace
    (Metric.nproc ());
  List.iter print_endline r.Metric.notes;
  List.iter
    (fun (name, ok) -> Printf.printf "check %-26s %s\n" name (if ok then "ok" else "FAILED"))
    checks;
  List.iter
    (fun m ->
      Printf.printf "metric %-26s %14.6g %-6s n=%d\n" m.Metric.name m.Metric.value m.Metric.unit
        m.Metric.samples)
    metrics;
  if !Spans.on && !out <> "" then
    Spans.write (Filename.concat !out (Printf.sprintf "spans-%s-%d.jsonl" r.Metric.workload seed));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct
    r.Metric.attempted r.Metric.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.Metric.name
              (if Float.is_finite m.Metric.value then json_number m.Metric.value else "0")
              m.Metric.unit)
          metrics));
  exit (if correct then 0 else 1)
