(* Named results, and the canonical metric lists every run prints. *)

type t = { name : string; unit : string; value : float; samples : int }

let v ?(samples = 1) name unit value = { name; unit; value; samples }

type result = {
  workload : string;
  checks : (string * bool) list;  (** every output check the run made *)
  attempted : int;
  failed : int;
  metrics : t list;
  notes : string list;  (** human-readable detail printed before the result *)
}

(* End-to-end metrics: every workload reports each of them (untraced run). *)
let end_to_end =
  [
    ("commit_p50_ms", "ms");
    ("commit_p99_ms", "ms");
    ("commits_per_s", "1/s");
    ("peak_heap_mb", "MB");
    ("setup_s", "s");
  ]

(* Per-layer metrics: every workload reports each of them (traced run); a
   layer the workload does not exercise reads 0. *)
let per_layer =
  [
    ("tcp.post_wait_us_p50", "us");
    ("tcp.post_wait_us_p99", "us");
    ("tcp.one_way_us_p50", "us");
    ("tcp.one_way_us_p99", "us");
    ("envelope.encode_us", "us");
    ("envelope.decode_us", "us");
    ("envelope.bytes_per_commit", "B");
    ("tcp.frames_per_commit", "count");
    ("tcp.shed", "count");
    ("tcp.dup_dropped", "count");
    ("tcp.reconnects", "count");
    ("corelock.wait_us", "us");
    ("replica.handle_us", "us");
    ("replica.msgs_per_commit", "count");
    ("replica.view_changes", "count");
    ("fd.suspicions", "count");
    ("fd.false_suspicions", "count");
    ("qsel.quorums_issued", "count");
    ("qsel.epochs", "count");
    ("qsel.rejected_updates", "count");
    ("store.puts_per_commit", "count");
    ("store.fsyncs_per_commit", "count");
    ("durable.snapshot_bytes", "B");
    ("durable.persist_us", "us");
    ("rejoin.bytes_per_s", "B/s");
    ("rejoin.rounds_completed", "count");
    ("sim.events_per_commit", "count");
    ("net.msgs_per_commit", "count");
    ("net.dropped", "count");
    ("metrics.hist_samples", "count");
    ("journal.dropped", "count");
    ("mc.apply_us", "us");
    ("mc.fingerprint_us", "us");
    ("mc.symmetry_us", "us");
    ("mc.snapshot_us", "us");
    ("mc.barrier_s", "s");
    ("mc.visited", "count");
    ("mc.transitions", "count");
    ("mc.revisit_pruned", "count");
    ("shard.stalls", "count");
    ("outage_ms", "ms");
    ("outage_max_ms", "ms");
    ("states_per_s", "1/s");
    ("fail_frac", "ratio");
    ("layer.transport_us", "us");
    ("layer.wire_us", "us");
    ("layer.xpaxos_us", "us");
    ("layer.recovery_us", "us");
    ("layer.bench_us", "us");
    ("layer.unattributed_us", "us");
    ("layer.wall_us", "us");
    ("trace.commits_per_s", "1/s");
    ("host.nproc", "count");
  ]

(* The metrics of [names], in that order, from [ms]; a missing one reads 0
   with no samples. *)
let select names ms =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun m -> m.name = name) ms with
      | Some m -> m
      | None -> { name; unit; value = 0.; samples = 0 })
    names

let us_of_s s = s *. 1e6

let ms_of_s s = s *. 1e3

(* Median and ten-beyond tail of a latency sample given per trial, as two
   metrics: each trial's median, and the lower quartile over trials
   ({!Stats.fast_quartile}). The tail is taken the same way when every
   trial holds enough samples for p99; otherwise it pools every trial. *)
let latency ~p50 ~tail unit trials =
  match List.concat trials with
  | [] -> []
  | pooled -> (
    let a = Stats.sorted pooled in
    let n = Array.length a in
    let trials = List.filter (fun xs -> xs <> []) trials |> List.map Stats.sorted in
    let fast = Stats.fast_quartile ~lower_is_better:true in
    let m50 = v ~samples:n p50 unit (fast (List.map (fun t -> Stats.percentile t 500) trials)) in
    let per_trial = List.map Stats.tail trials in
    if List.for_all (function Some (990, _) -> true | _ -> false) per_trial then
      [ m50; v ~samples:n tail unit (fast (List.filter_map (Option.map snd) per_trial)) ]
    else
      match Stats.tail a with Some (_, x) -> [ m50; v ~samples:n tail unit x ] | None -> [ m50 ])

(* Trials per run: a fixed amount of work, sized so a run takes about
   [seconds] on a 2-core host at [per_second] trials a second. A faster
   build finishes sooner; it never does more work. *)
let trials ~seconds ~per_second = max 3 (int_of_float (Float.round (seconds *. per_second)))

let mean = function [] -> 0. | xs -> List.fold_left ( +. ) 0. xs /. float (List.length xs)

let nproc () = Domain.recommended_domain_count ()

(* CPU seconds this process has used, every thread and domain together. On
   a shared host it excludes time the hypervisor gave to other tenants. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float s.Gc.top_heap_words *. float (Sys.word_size / 8) /. 1048576.
