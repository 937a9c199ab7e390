(* mc-explore: the exhaustive [Shard.explore ~sym:true] on the n=5 quorum
   model-checking instance (the system of [mc --protocol quorum -n 5 --sym])
   at a fixed depth. No transport, durability or replica code runs: this
   is the control workload for protocol-path work. The instance is fixed,
   so the seed does not change its input.

   One shard: with two domains on a 2-core host every timing spread more
   than 25% from run to run (each domain's minor collections wait for the
   other, so any slowdown of one core stalls both), and the heap grew
   with every trial's domain spawn.

   A "commit" here is one transition the explorer applies; its latency is
   the explorer's busy time for it: the apply plus the canonicalisation,
   snapshot and checks around it, without the idle waits at the deepening
   barriers. The same timing runs traced and untraced. *)

module MC = Qs_harness.Modelcheck
module Engine = Qs_mc.Engine
module Shard = Qs_mc.Shard

let depth = 4

let jobs = 1

let spec = { (MC.default_spec MC.Quorum) with MC.n = 5 }

type trial = {
  setup_s : float;
  wall_s : float;
  cpu_s : float;  (** CPU time of the measured phase *)
  report : Engine.report;
  shards : Shard.shard_stat list;
  accs : Wrap.mc_acc list;
}

let trial () =
  Gc.compact ();
  let t_setup = Spans.now () in
  let first = MC.make spec in
  let setup_s = Spans.now () -. t_setup in
  Wrap.mc_reset ();
  (* Shard 0 reuses the system built in set-up; every other shard builds
     its own inside its domain. *)
  let handed = Atomic.make false in
  let mk () =
    let s = if Atomic.exchange handed true then MC.make spec else first in
    Wrap.system s
  in
  let t_run = Spans.now () and c_run = Metric.cpu_now () in
  let r = Shard.explore ~jobs ~sym:true ~depth mk in
  let wall_s = Spans.now () -. t_run and cpu_s = Metric.cpu_now () -. c_run in
  {
    setup_s;
    wall_s;
    cpu_s;
    report = r.Shard.report;
    shards = r.Shard.shards;
    accs = Wrap.mc_collect ();
  }

let run ~seed:_ ~seconds =
  (* The reference: the sequential explorer's visited-state count. *)
  let reference = (Engine.explore ~sym:true ~depth (MC.make spec)).Engine.visited in
  (* Sized for about [seconds] of run time on a 2-core host. *)
  let ts = List.init (Metric.trials ~seconds ~per_second:0.9) (fun _ -> trial ()) in
  let nt = List.length ts in
  let v = Metric.v in
  let applies t = List.fold_left (fun a (x : Wrap.mc_acc) -> a + x.Wrap.applies) 0 t.accs in
  let work_ms =
    List.map
      (fun t ->
        List.concat_map (fun (a : Wrap.mc_acc) -> List.map Metric.ms_of_s a.Wrap.work) t.accs)
      ts
  in
  let per_trial g = Metric.mean (List.map g ts) in
  let throughput =
    Stats.fast_quartile ~lower_is_better:false
      (List.map (fun t -> float (applies t) /. t.wall_s) ts)
  in
  let acc_us g =
    per_trial (fun t -> Metric.us_of_s (List.fold_left (fun s a -> s +. g a) 0. t.accs))
  in
  let callbacks (a : Wrap.mc_acc) =
    a.Wrap.apply_s +. a.Wrap.fingerprint_s +. a.Wrap.symmetry_s +. a.Wrap.snapshot_s
    +. a.Wrap.other_s
  in
  let traced =
    if not !Spans.on then []
    else
      [
        v ~samples:nt "mc.apply_us" "us" (acc_us (fun a -> a.Wrap.apply_s));
        v ~samples:nt "mc.fingerprint_us" "us" (acc_us (fun a -> a.Wrap.fingerprint_s));
        v ~samples:nt "mc.symmetry_us" "us" (acc_us (fun a -> a.Wrap.symmetry_s));
        v ~samples:nt "mc.snapshot_us" "us" (acc_us (fun a -> a.Wrap.snapshot_s));
        v ~samples:nt "mc.barrier_s" "s"
          (per_trial (fun t ->
               List.fold_left (fun s (x : Shard.shard_stat) -> s +. x.Shard.elapsed_s) 0. t.shards
               -. List.fold_left (fun s a -> s +. callbacks a) 0. t.accs));
        v ~samples:nt "trace.commits_per_s" "1/s" throughput;
      ]
  in
  let metrics =
    Metric.latency ~p50:"commit_p50_ms" ~tail:"commit_p99_ms" "ms" work_ms
    @ [
        v ~samples:nt "commits_per_s" "1/s" throughput;
        v "peak_heap_mb" "MB" (Metric.peak_heap_mb ());
        v ~samples:nt "setup_s" "s"
          (Stats.fast_quartile ~lower_is_better:true (List.map (fun t -> t.setup_s) ts));
        v ~samples:nt "states_per_s" "1/s"
          (Stats.fast_quartile ~lower_is_better:false
             (List.map (fun t -> float t.report.Engine.visited /. t.wall_s) ts));
        v ~samples:nt "mc.visited" "count" (float (List.hd ts).report.Engine.visited);
        v ~samples:nt "mc.transitions" "count"
          (per_trial (fun t -> float t.report.Engine.transitions));
        v ~samples:nt "mc.revisit_pruned" "count"
          (per_trial (fun t -> float t.report.Engine.revisit_pruned));
        v ~samples:nt "shard.stalls" "count"
          (per_trial (fun t ->
               float
                 (List.fold_left (fun s (x : Shard.shard_stat) -> s + x.Shard.stalls) 0 t.shards)));
        v "host.nproc" "count" (float (Metric.nproc ()));
      ]
    @ traced
  in
  let transitions = List.fold_left (fun a t -> a + applies t) 0 ts in
  {
    Metric.workload = "mc-explore";
    checks =
      [
        ( "visited-equals-sequential",
          List.for_all (fun t -> t.report.Engine.visited = reference) ts );
        ("no-violations", List.for_all (fun t -> Engine.ok t.report) ts);
      ];
    attempted = transitions;
    failed = 0;
    metrics;
    notes =
      [
        Printf.sprintf "trials=%d depth=%d jobs=%d reference visited=%d" nt depth jobs reference;
        Printf.sprintf "commits per CPU second %.2f"
          (Stats.fast_quartile ~lower_is_better:false
             (List.map (fun t -> float (applies t) /. Float.max 1e-3 t.cpu_s) ts));
      ];
  }
