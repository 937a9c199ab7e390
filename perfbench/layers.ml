(* Per-layer metrics read off the span recorder after a traced run. *)

let v = Metric.v

(* Span layers, named by the prefix of each span name. *)
let layers = [ "transport"; "wire"; "xpaxos"; "recovery"; "bench" ]

(* Self time per layer per unit of work, plus the unattributed remainder:
   they add up to [wall], the traced wall time of the measured phases. *)
let split ~wall ~units =
  if not !Spans.on then []
  else
    let by = Spans.self_by_layer () in
    let per s = Metric.us_of_s s /. float (max 1 units) in
    let self l = Option.value ~default:0. (List.assoc_opt l by) in
    let attributed = List.fold_left (fun a (_, s) -> a +. s) 0. by in
    List.map (fun l -> v ~samples:units ("layer." ^ l ^ "_us") "us" (per (self l))) layers
    @ [
        v ~samples:units "layer.unattributed_us" "us" (per (wall -. attributed));
        v ~samples:units "layer.wall_us" "us" (per wall);
      ]

(* Time one persist of [replica] into a scratch store, as sample
   "durable.persist" and, by commit count, "durable.persist@<commits>". *)
let persist_probe replica ~commits =
  Spans.span "bench.probe" (fun () ->
      let t0 = Spans.now () in
      Qs_xpaxos.Xdurable.persist replica (Qs_recovery.Store.create ());
      let d = Spans.now () -. t0 in
      Spans.sample "durable.persist" d;
      Spans.sample (Printf.sprintf "durable.persist@%04d" commits) d)

(* The probe's mean by commit count, as one line. *)
let persist_series () =
  "durable.persist_us by commits:"
  ^ String.concat ""
      (List.map
         (fun (name, xs) ->
           let at = String.sub name 16 (String.length name - 16) in
           Printf.sprintf " %d:%.0f" (int_of_string at) (Metric.us_of_s (Metric.mean xs)))
         (Spans.samples_with "durable.persist@"))

let mean_self name =
  match Spans.count_of_span name with
  | 0 -> 0.
  | k -> Metric.us_of_s (Spans.self_of name) /. float k

(* Span-derived metrics both protocol workloads report. *)
let common ~units =
  if not !Spans.on then []
  else
    let persist = Spans.samples_of "durable.persist" in
    [
      v ~samples:(Spans.count_of_span "xpaxos.handle") "replica.handle_us" "us"
        (mean_self "xpaxos.handle");
      v ~samples:units "replica.msgs_per_commit" "count"
        (float (Spans.count_of "xpaxos.msgs") /. float (max 1 units));
      v ~samples:(List.length persist) "durable.persist_us" "us"
        (Metric.us_of_s (Metric.mean persist));
      v "host.nproc" "count" (float (Metric.nproc ()));
    ]

module Replica = Qs_xpaxos.Replica
module Store = Qs_recovery.Store
module Rejoin = Qs_recovery.Rejoin
module Detector = Qs_fd.Detector
module QS = Qs_core.Quorum_select

(* One trial's counters read off its replicas, stores, rejoin engines and
   the observability layer, at the end of the trial. *)
let cluster_counts ~replicas ~stores ~rejoins =
  let fl = float in
  let sum g = Array.fold_left (fun acc x -> acc + g x) 0 in
  let max_of g = Array.fold_left (fun acc x -> max acc (g x)) 0 in
  let selectors =
    Array.of_list (List.filter_map Replica.quorum_selector (Array.to_list replicas))
  in
  let stores = Array.of_list (List.filter_map Fun.id (Array.to_list stores)) in
  let snapshot_bytes s =
    List.fold_left (fun b (k, v) -> b + String.length k + String.length v) 0 (Store.bindings s)
  in
  let hist_samples =
    List.fold_left
      (fun acc (p : Qs_obs.Metrics.point) ->
        match p.Qs_obs.Metrics.value with
        | Qs_obs.Metrics.Histogram { count; _ } -> acc + count
        | _ -> acc)
      0 (Qs_obs.Metrics.snapshot ())
  in
  [
    ("replica.view_changes", fl (max_of Replica.view_changes replicas));
    ("fd.suspicions", fl (sum (fun r -> Detector.raised_total (Replica.detector r)) replicas));
    ( "fd.false_suspicions",
      fl (sum (fun r -> Detector.false_suspicions (Replica.detector r)) replicas) );
    ("qsel.quorums_issued", fl (max_of QS.quorums_issued selectors));
    ("qsel.epochs", fl (max_of QS.epochs_entered selectors));
    ("qsel.rejected_updates", fl (sum QS.rejected_updates selectors));
    ("store.puts", fl (sum Store.puts stores));
    ("store.fsyncs", fl (sum Store.fsyncs stores));
    ("durable.snapshot_bytes", fl (max_of snapshot_bytes stores));
    ("rejoin.bytes", fl (sum Rejoin.gossip_bytes rejoins));
    ("rejoin.rounds_completed", fl (sum Rejoin.completed_rounds rejoins));
    ("metrics.hist_samples", fl hist_samples);
    ("journal.dropped", fl (Qs_obs.Journal.dropped ()));
  ]

let total trials key = List.fold_left (fun a c -> a +. List.assoc key c) 0. trials

(* The per-layer metrics of [cluster_counts], over a run's trials: counts
   as per-trial means (the quorum count as the worst trial), work as per
   commit, rejoin traffic per second of the trials' clocks. *)
let cluster_metrics trials ~commits =
  let nt = List.length trials in
  let total = total trials in
  let mean key = total key /. float nt in
  let per_commit key = total key /. float (max 1 commits) in
  [
    v ~samples:nt "replica.view_changes" "count" (mean "replica.view_changes");
    v ~samples:nt "fd.suspicions" "count" (mean "fd.suspicions");
    v ~samples:nt "fd.false_suspicions" "count" (mean "fd.false_suspicions");
    v ~samples:nt "qsel.quorums_issued" "count"
      (List.fold_left (fun a c -> Float.max a (List.assoc "qsel.quorums_issued" c)) 0. trials);
    v ~samples:nt "qsel.epochs" "count" (mean "qsel.epochs");
    v ~samples:nt "qsel.rejected_updates" "count" (mean "qsel.rejected_updates");
    v ~samples:commits "store.puts_per_commit" "count" (per_commit "store.puts");
    v ~samples:commits "store.fsyncs_per_commit" "count" (per_commit "store.fsyncs");
    v ~samples:nt "durable.snapshot_bytes" "B" (mean "durable.snapshot_bytes");
    v ~samples:nt "rejoin.bytes_per_s" "B/s" (total "rejoin.bytes" /. total "rejoin.seconds");
    v ~samples:nt "rejoin.rounds_completed" "count" (mean "rejoin.rounds_completed");
    v ~samples:nt "metrics.hist_samples" "count" (mean "metrics.hist_samples");
    v ~samples:nt "journal.dropped" "count" (mean "journal.dropped");
  ]
