module Table = Qs_stdx.Table
module Engine = Qs_mc.Engine
module Shard = Qs_mc.Shard
module Json = Qs_obs.Json

type point = {
  jobs : int;
  iters : int;
  visited : int;
  elapsed_s : float;
  states_per_sec : float;
  speedup : float;
  identical_report : bool;
  same_states : bool;
}

type explore_check = {
  seq_visited : int;
  par_visited : int;
  sets_agree : bool;
  sym_visited : int;
  sym_collapses : bool;
  sym_visited_n5 : int;
  sym_candidates_n5 : int;
}

let default_jobs = [ 1; 2; 4; 8 ]

let spec () = Modelcheck.default_spec Modelcheck.Quorum

let render r = Json.render (Engine.report_to_json r)

let measure ?(quick = false) ?(jobs = default_jobs) () =
  let iters = if quick then 60 else 300 in
  let mk () = Modelcheck.make (spec ()) in
  let runs =
    List.map
      (fun j ->
        let t0 = Unix.gettimeofday () in
        let r = Shard.random ~jobs:j ~seed:71 ~iters mk in
        let elapsed = Unix.gettimeofday () -. t0 in
        (j, r, elapsed))
      jobs
  in
  let base =
    match runs with
    | (_, r, e) :: _ -> (render r.Shard.report, r.Shard.states_digest, e)
    | [] -> invalid_arg "E_explore.measure: empty jobs list"
  in
  let base_render, base_digest, base_elapsed = base in
  let points =
    List.map
      (fun (j, r, elapsed) ->
        {
          jobs = j;
          iters;
          visited = r.Shard.report.Engine.visited;
          elapsed_s = elapsed;
          states_per_sec =
            (if elapsed > 0. then
               float_of_int r.Shard.report.Engine.visited /. elapsed
             else 0.);
          speedup = (if elapsed > 0. then base_elapsed /. elapsed else 1.);
          identical_report = String.equal (render r.Shard.report) base_render;
          same_states = String.equal r.Shard.states_digest base_digest;
        })
      runs
  in
  (* Exhaustive side: the sharded IDDFS visits exactly the sequential
     explorer's state set, and symmetry-canonical fingerprints strictly
     shrink it. Small depth — this is an agreement check, not a race. *)
  let depth = 4 in
  let seq = Engine.explore ~depth (mk ()) in
  let par = Shard.explore ~jobs:2 ~depth mk in
  let sym = Engine.explore ~sym:true ~depth (mk ()) in
  let seq_digest = (Shard.explore ~jobs:1 ~depth mk).Shard.states_digest in
  (* The n=5 instance under symmetry, counting the candidate labellings
     every canonical call keys: how well the signatures split the free
     pids, as a count no host changes. *)
  let sym5, candidates =
    let system, search =
      Modelcheck.make_with_canon_search { (spec ()) with Modelcheck.n = 5 }
    in
    let candidates = ref 0 in
    let counting canon () =
      candidates := !candidates + search.Modelcheck.candidates ();
      canon ()
    in
    let r =
      Engine.explore ~sym:true ~depth
        { system with Engine.symmetry = Option.map counting system.Engine.symmetry }
    in
    (r, !candidates)
  in
  let check =
    {
      seq_visited = seq.Engine.visited;
      par_visited = par.Shard.report.Engine.visited;
      sets_agree =
        seq.Engine.visited = par.Shard.report.Engine.visited
        && String.equal seq_digest par.Shard.states_digest;
      sym_visited = sym.Engine.visited;
      sym_collapses = sym.Engine.visited < seq.Engine.visited;
      sym_visited_n5 = sym5.Engine.visited;
      sym_candidates_n5 = candidates;
    }
  in
  (points, check)

let run ?quick ?jobs () =
  let points, check = measure ?quick ?jobs () in
  let t =
    Table.create
      ~title:
        "E17 (extension): multicore exploration - domain-sharded fuzzing, \
         deterministic merge, symmetry reduction"
      ~columns:
        [
          ("jobs", Table.Right);
          ("walks", Table.Right);
          ("states", Table.Right);
          ("wall s", Table.Right);
          ("states/s", Table.Right);
          ("speedup", Table.Right);
          ("identical", Table.Right);
        ]
  in
  let verdicts = ref [] in
  List.iter
    (fun p ->
      Table.add_row t
        [
          string_of_int p.jobs;
          string_of_int p.iters;
          string_of_int p.visited;
          Printf.sprintf "%.2f" p.elapsed_s;
          Printf.sprintf "%.0f" p.states_per_sec;
          Printf.sprintf "%.2fx" p.speedup;
          (if p.identical_report && p.same_states then "yes" else "NO");
        ];
      let tag s = Printf.sprintf "jobs=%d: %s" p.jobs s in
      verdicts :=
        Verdict.make (tag "report byte-identical to jobs=1") p.identical_report
        :: Verdict.make (tag "same visited-fingerprint set") p.same_states
        :: !verdicts)
    points;
  verdicts :=
    Verdict.make "exhaustive: sharded visited set matches sequential"
      check.sets_agree
    :: Verdict.make
         (Printf.sprintf "exhaustive: symmetry collapses states (%d < %d)"
            check.sym_visited check.seq_visited)
         check.sym_collapses
    :: !verdicts;
  (t, List.rev !verdicts)
