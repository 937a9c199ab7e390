module Prng = Qs_stdx.Prng
module Domainpool = Qs_stdx.Domainpool
module Sha256 = Qs_crypto.Sha256
module Metrics = Qs_obs.Metrics
module I = Engine.Internal

let now_s () = Unix.gettimeofday ()

type shard_stat = {
  shard : int;
  states : int;
  transitions : int;
  tasks : int;
  steals : int;
  stalls : int;
  elapsed_s : float;
}

type result = {
  report : Engine.report;
  shards : shard_stat list;
  states_digest : string;
}

(* Order-independent digest of a fingerprint set: hash the sorted hex
   renders. Equal digests <=> equal visited-state sets, which is the bench
   gate's sequential-vs-parallel agreement check. *)
let digest_of_set (tbl : (Sha256.digest, unit) Hashtbl.t) =
  let hexes = Hashtbl.fold (fun fp () acc -> Sha256.hex fp :: acc) tbl [] in
  Sha256.hex (Sha256.digest_string (String.concat "" (List.sort compare hexes)))

(* Per-check candidate counterexamples; ties broken by lexicographically
   least schedule so the merge never depends on which shard got there
   first. *)
let add_cand tbl (check, detail, sched) =
  match Hashtbl.find_opt tbl check with
  | None -> Hashtbl.replace tbl check (detail, sched)
  | Some (_, s') -> if compare sched s' < 0 then Hashtbl.replace tbl check (detail, sched)

(* ------------------------------------------------------------------ *)
(* Random mode: [Engine.random]'s walk loop, each walk on its own
   substream of the seed, so a trajectory is a function of (seed, index)
   alone and shards may run walks in any order. *)

let random ~jobs ?(shrink = true) ~seed ~iters mk =
  if jobs < 1 then invalid_arg "Shard.random: jobs must be >= 1";
  if iters < 0 then invalid_arg "Shard.random: iters must be >= 0";
  let root = Prng.of_int seed in
  let sys_main = mk () in
  let next = Atomic.make 0 in
  (* Lowest violating walk index found so far; walks above it are skipped.
     Every index <= the final minimum is provably executed (a skip needs a
     violating walk strictly below it), so the merged prefix is exact. *)
  let best = Atomic.make max_int in
  let rec lower_best i =
    let cur = Atomic.get best in
    if i < cur && not (Atomic.compare_and_set best cur i) then lower_best i
  in
  let fair = (iters + jobs - 1) / jobs in
  let run_shard k =
    let t0 = now_s () in
    let system = if k = 0 then sys_main else mk () in
    let walks = ref [] in
    let executed = ref 0 in
    let continue = ref true in
    while !continue do
      let i = Atomic.fetch_and_add next 1 in
      if i >= iters then continue := false
      else if i < Atomic.get best then begin
        let w = I.walk system ~rng:(Prng.substream root i) in
        incr executed;
        if w.I.w_viols <> [] then lower_best i;
        walks := (i, w) :: !walks
      end
    done;
    let seen = Hashtbl.create 256 in
    List.iter
      (fun (_, w) -> List.iter (fun fp -> Hashtbl.replace seen fp ()) w.I.w_fps)
      !walks;
    let transitions = List.fold_left (fun a (_, w) -> a + w.I.w_transitions) 0 !walks in
    let stat =
      {
        shard = k;
        states = Hashtbl.length seen;
        transitions;
        tasks = !executed;
        steals = max 0 (!executed - fair);
        stalls = 0;
        elapsed_s = now_s () -. t0;
      }
    in
    (!walks, stat)
  in
  let outs = Domainpool.run ~jobs run_shard in
  let walks =
    Array.to_list outs
    |> List.concat_map fst
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let w_star = List.find_opt (fun (_, w) -> w.I.w_viols <> []) walks in
  let horizon = match w_star with Some (i, _) -> i | None -> iters - 1 in
  let considered = List.filter_map (fun (i, w) -> if i <= horizon then Some w else None) walks in
  let fps = Hashtbl.create 1024 in
  List.iter
    (fun w -> List.iter (fun fp -> Hashtbl.replace fps fp ()) w.I.w_fps)
    considered;
  let sum f = List.fold_left (fun a w -> a + f w) 0 considered in
  let violations =
    match w_star with
    | None -> []
    | Some (_, w) -> Engine.shrink_violations sys_main ~shrink w.I.w_viols
  in
  let report =
    {
      Engine.mode = Engine.Random { seed; iters };
      visited = Hashtbl.length fps;
      revisit_pruned = 0;
      sleep_pruned = 0;
      transitions = sum (fun w -> w.I.w_transitions);
      quiescent = sum (fun w -> if w.I.w_quiescent then 1 else 0);
      truncated = sum (fun w -> if w.I.w_truncated then 1 else 0);
      complete = false;
      violations;
    }
  in
  let shards = Array.to_list outs |> List.map snd in
  { report; shards; states_digest = digest_of_set fps }

(* ------------------------------------------------------------------ *)
(* Exhaustive mode *)

type worker_out = {
  o_stats : I.stats;
  o_visited : I.table;
  o_qfps : (Sha256.digest, unit) Hashtbl.t;
  o_cands : (string * string * Schedule.t) list;
  o_tasks : int;
  o_elapsed : float;
}

let explore ~jobs ?(por = true) ?(shrink = true) ?(sym = false) ~depth mk =
  if jobs < 1 then invalid_arg "Shard.explore: jobs must be >= 1";
  if depth < 1 then invalid_arg "Shard.explore: depth must be >= 1";
  let sys_main = mk () in
  let fpf_main = I.fingerprint_for ~sym sys_main in
  let acc_states = Array.make jobs 0 in
  let acc_transitions = Array.make jobs 0 in
  let acc_tasks = Array.make jobs 0 in
  let acc_stalls = Array.make jobs 0 in
  let acc_elapsed = Array.make jobs 0.0 in
  (* Shortest-bound-first discovery, like the sequential deepening loop: a
     check registered at an earlier bound keeps that bound's schedule. *)
  let found : (string, string * Schedule.t) Hashtbl.t = Hashtbl.create 4 in
  let found_order = ref [] in
  let run_bound bound =
    (* Root expansion on the calling domain, reproducing the sequential
       explorer's left-to-right sleep-set assignment for the root's
       children. *)
    let root_stats = I.new_stats () in
    let cands : (string, string * Schedule.t) Hashtbl.t = Hashtbl.create 4 in
    sys_main.Engine.reset ();
    List.iter
      (fun (c, d) -> add_cand cands (c, d, []))
      (sys_main.Engine.violations ());
    let rfp = Sha256.digest_string (fpf_main ()) in
    root_stats.I.s_visited <- 1;
    let root_quiescent = ref false in
    let rev_children = ref [] in
    (match sys_main.Engine.enabled () with
     | [] ->
       root_stats.I.s_quiescent <- 1;
       root_quiescent := true;
       List.iter
         (fun (c, d) -> add_cand cands (c, d, []))
         (sys_main.Engine.quiescent_violations ())
     | en ->
       let slept : (string, unit) Hashtbl.t = Hashtbl.create 8 in
       let explored = ref [] in
       List.iter
         (fun ci ->
           if Hashtbl.mem slept ci.Engine.canon then
             root_stats.I.s_sleep <- root_stats.I.s_sleep + 1
           else begin
             let child_sleep = List.filter (fun b -> Engine.commutes b ci) !explored in
             root_stats.I.s_transitions <- root_stats.I.s_transitions + 1;
             rev_children := (ci, child_sleep) :: !rev_children;
             Hashtbl.replace slept ci.Engine.canon ();
             if por then explored := !explored @ [ ci ]
           end)
         en);
    let children = Array.of_list (List.rev !rev_children) in
    let nshards = max 1 (min jobs (Array.length children)) in
    let worker k =
      let t0 = now_s () in
      let system = if k = 0 then sys_main else mk () in
      let fpf = if k = 0 then fpf_main else I.fingerprint_for ~sym system in
      let stats = I.new_stats () in
      let visited : I.table = Hashtbl.create 4096 in
      (* Seed with the root's cache entry so subtree revisits of the root
         state prune exactly as they would sequentially. *)
      Hashtbl.replace visited rfp [ (bound, []) ];
      let qfps = Hashtbl.create 16 in
      let wcands : (string, string * Schedule.t) Hashtbl.t = Hashtbl.create 4 in
      let note path vs = List.iter (fun (c, d) -> add_cand wcands (c, d, path)) vs in
      let tasks = ref 0 in
      Array.iteri
        (fun idx (ci, child_sleep) ->
          if idx mod nshards = k then begin
            incr tasks;
            system.Engine.reset ();
            ignore (system.Engine.apply ci.Engine.choice);
            I.visit system ~fpf ~por ~stats ~visited ~qfps:(Some qfps) ~note
              ~path:[ ci.Engine.choice ] ~budget:(bound - 1) ~sleep:child_sleep
          end)
        children;
      {
        o_stats = stats;
        o_visited = visited;
        o_qfps = qfps;
        o_cands = Hashtbl.fold (fun c (d, s) acc -> (c, d, s) :: acc) wcands [];
        o_tasks = !tasks;
        o_elapsed = now_s () -. t0;
      }
    in
    let outs =
      if !root_quiescent || Array.length children = 0 then [||]
      else Domainpool.run ~jobs:nshards worker
    in
    (* Barrier merge. The visited and quiescent fingerprint SETS are
       partition-independent (sleep sets remove transitions, never states);
       the event counters below them are sums and depend on the partition. *)
    let visited_set = Hashtbl.create 4096 in
    Hashtbl.replace visited_set rfp ();
    Array.iter
      (fun o -> Hashtbl.iter (fun fp _ -> Hashtbl.replace visited_set fp ()) o.o_visited)
      outs;
    let qset = Hashtbl.create 16 in
    Array.iter
      (fun o -> Hashtbl.iter (fun fp () -> Hashtbl.replace qset fp ()) o.o_qfps)
      outs;
    let merged = I.new_stats () in
    merged.I.s_visited <- Hashtbl.length visited_set;
    merged.I.s_quiescent <-
      (Hashtbl.length qset + if !root_quiescent then 1 else 0);
    merged.I.s_sleep <- root_stats.I.s_sleep;
    merged.I.s_transitions <- root_stats.I.s_transitions;
    Array.iter
      (fun o ->
        merged.I.s_revisit <- merged.I.s_revisit + o.o_stats.I.s_revisit;
        merged.I.s_sleep <- merged.I.s_sleep + o.o_stats.I.s_sleep;
        merged.I.s_transitions <- merged.I.s_transitions + o.o_stats.I.s_transitions;
        merged.I.s_truncated <- merged.I.s_truncated + o.o_stats.I.s_truncated)
      outs;
    Array.iter (fun o -> List.iter (add_cand cands) o.o_cands) outs;
    let bound_cands =
      Hashtbl.fold (fun c (d, s) acc -> (c, d, s) :: acc) cands []
      |> List.sort (fun (c1, _, s1) (c2, _, s2) -> compare (s1, c1) (s2, c2))
    in
    List.iter
      (fun (c, d, s) ->
        if not (Hashtbl.mem found c) then begin
          Hashtbl.replace found c (d, s);
          found_order := c :: !found_order
        end)
      bound_cands;
    let max_elapsed = Array.fold_left (fun m o -> max m o.o_elapsed) 0.0 outs in
    Array.iteri
      (fun k o ->
        acc_states.(k) <- acc_states.(k) + o.o_stats.I.s_visited;
        acc_transitions.(k) <- acc_transitions.(k) + o.o_stats.I.s_transitions;
        acc_tasks.(k) <- acc_tasks.(k) + o.o_tasks;
        if max_elapsed -. o.o_elapsed > 1e-3 then
          acc_stalls.(k) <- acc_stalls.(k) + 1;
        acc_elapsed.(k) <- acc_elapsed.(k) +. o.o_elapsed)
      outs;
    (merged, visited_set)
  in
  let rec deepen bound =
    let stats, vset = run_bound bound in
    if stats.I.s_truncated = 0 || bound = depth then (stats, vset)
    else deepen (bound + 1)
  in
  let stats, vset = deepen 1 in
  let violations =
    List.rev_map
      (fun c ->
        let d, s = Hashtbl.find found c in
        { Engine.check = c; detail = d; schedule = s; shrink_steps = 0 })
      !found_order
    |> Engine.shrink_violations sys_main ~shrink
  in
  let report =
    {
      Engine.mode = Engine.Exhaustive { depth };
      visited = stats.I.s_visited;
      revisit_pruned = stats.I.s_revisit;
      sleep_pruned = stats.I.s_sleep;
      transitions = stats.I.s_transitions;
      quiescent = stats.I.s_quiescent;
      truncated = stats.I.s_truncated;
      complete = stats.I.s_truncated = 0;
      violations;
    }
  in
  let shards =
    List.init jobs (fun k ->
        {
          shard = k;
          states = acc_states.(k);
          transitions = acc_transitions.(k);
          tasks = acc_tasks.(k);
          steals = 0;
          stalls = acc_stalls.(k);
          elapsed_s = acc_elapsed.(k);
        })
  in
  { report; shards; states_digest = digest_of_set vset }

(* ------------------------------------------------------------------ *)

let observe ?m result =
  List.iter
    (fun s ->
      if s.elapsed_s > 0.0 then
        Metrics.observe_h ?m
          ~labels:[ ("shard", string_of_int s.shard) ]
          "mc_shard_states_per_sec"
          (float_of_int s.states /. s.elapsed_s);
      Metrics.inc_c ?m ~by:s.steals "mc_steals_total";
      Metrics.inc_c ?m ~by:s.stalls "mc_merge_stalls_total")
    result.shards
