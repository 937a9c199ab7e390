module Prng = Qs_stdx.Prng
module Sha256 = Qs_crypto.Sha256
module Campaign = Qs_faults.Campaign
module Json = Qs_obs.Json

type choice_info = {
  choice : Schedule.choice;
  canon : string;
  receiver : int option;
}

type system = {
  reset : unit -> unit;
  enabled : unit -> choice_info list;
  apply : Schedule.choice -> bool;
  fingerprint : unit -> string;
  violations : unit -> (string * string) list;
  quiescent_violations : unit -> (string * string) list;
  snapshot : (unit -> unit -> unit) option;
  symmetry : (unit -> string) option;
}

type violation = {
  check : string;
  detail : string;
  schedule : Schedule.t;
  shrink_steps : int;
}

type mode = Exhaustive of { depth : int } | Random of { seed : int; iters : int }

type report = {
  mode : mode;
  visited : int;
  revisit_pruned : int;
  sleep_pruned : int;
  transitions : int;
  quiescent : int;
  truncated : int;
  complete : bool;
  violations : violation list;
}

let ok r = r.violations = []

(* Two choices commute iff they are deliveries to distinct processes: the
   receiving handler only mutates its own process's state (and appends
   sends, which the id-free fingerprint orders canonically), so either order
   reaches the same global state. Steps and fires touch shared state (the
   clock, a detector) and are never treated as independent. *)
let commutes a b =
  match (a.receiver, b.receiver) with
  | Some ra, Some rb -> ra <> rb
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Replay + shrinking *)

let rematerialize (system : system) prefix =
  system.reset ();
  List.iter (fun c -> ignore (system.apply c)) prefix

let replay (system : system) schedule =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let note vs =
    List.iter
      (fun (check, detail) ->
        let key = check ^ "|" ^ detail in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          acc := (check, detail) :: !acc
        end)
      vs
  in
  system.reset ();
  note (system.violations ());
  List.iter
    (fun c ->
      ignore (system.apply c);
      note (system.violations ()))
    schedule;
  if system.enabled () = [] then note (system.quiescent_violations ());
  List.rev !acc

let remove_each schedule =
  List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) schedule) schedule

(* Greedy shrinking replays one candidate per oracle call, and candidate i
   of the current value shares its first i choices with the value itself.
   When the system has a snapshot fast path we memoize (snapshot,
   violations-so-far) at every prefix reached, so a candidate replay
   restores the longest cached prefix and only applies its tail instead of
   resetting and reapplying everything. Restore thunks are treated as
   single-use (the explorer's discipline), so a cache hit re-arms its entry
   with a fresh snapshot right after restoring. *)
let shrink ?(memo = true) system ~check schedule =
  match (if memo then system.snapshot else None) with
  | None ->
    Campaign.greedy_shrink ~candidates:remove_each
      ~still_fails:(fun candidate ->
        List.exists (fun (c, _) -> c = check) (replay system candidate))
      schedule
  | Some snap ->
    let cache : (string, (unit -> unit) * (string * string) list) Hashtbl.t =
      Hashtbl.create 64
    in
    let still_fails candidate =
      let arr = Array.of_list candidate in
      let n = Array.length arr in
      let keys = Array.make (n + 1) "" in
      for i = 1 to n do
        let c = Schedule.choice_to_string arr.(i - 1) in
        keys.(i) <- (if i = 1 then c else keys.(i - 1) ^ ";" ^ c)
      done;
      let start = ref 0 in
      (try
         for i = n downto 1 do
           if Hashtbl.mem cache keys.(i) then begin
             start := i;
             raise Exit
           end
         done
       with Exit -> ());
      let seen = Hashtbl.create 8 in
      let acc = ref [] in
      let note vs =
        List.iter
          (fun (c, d) ->
            let key = c ^ "|" ^ d in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.replace seen key ();
              acc := (c, d) :: !acc
            end)
          vs
      in
      (match Hashtbl.find_opt cache keys.(!start) with
       | Some (restore, viols) ->
         restore ();
         Hashtbl.replace cache keys.(!start) (snap (), viols);
         acc := viols;
         List.iter (fun (c, d) -> Hashtbl.replace seen (c ^ "|" ^ d) ()) viols
       | None ->
         (* Only the empty prefix can be uncached here. *)
         system.reset ();
         note (system.violations ());
         Hashtbl.replace cache "" (snap (), !acc));
      for i = !start to n - 1 do
        ignore (system.apply arr.(i));
        note (system.violations ());
        if Hashtbl.length cache < 512 then
          Hashtbl.replace cache keys.(i + 1) (snap (), !acc)
      done;
      if system.enabled () = [] then note (system.quiescent_violations ());
      List.exists (fun (c, _) -> c = check) !acc
    in
    Campaign.greedy_shrink ~candidates:remove_each ~still_fails schedule

let shrink_violations system ~shrink:do_shrink violations =
  List.map
    (fun v ->
      if not do_shrink then v
      else
        let schedule, steps = shrink system ~check:v.check v.schedule in
        { v with schedule; shrink_steps = steps })
    violations

(* ------------------------------------------------------------------ *)
(* Exhaustive exploration *)

(* Fingerprint cache combining budget-aware iterative deepening with sleep
   sets. A cache entry (b, S) means: this state was explored with [b]
   remaining choices and sleep set [S] (canonical keys, sorted). A revisit
   with budget b' and sleep S' is redundant iff some entry has b ≥ b' and
   S ⊆ S' — the earlier visit went at least as deep and explored at least
   the transitions the new visit would (sleep sets only remove transitions).
   Plain fingerprint pruning without the subset condition is unsound when
   combined with sleep sets; see DESIGN.md. *)
let rec subset a b =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: a', y :: b' ->
    if x = y then subset a' b' else if compare y x < 0 then subset a b' else false

let dominated entries budget sleep =
  List.exists (fun (b, s) -> b >= budget && subset s sleep) entries

let insert_entry entries budget sleep =
  (budget, sleep)
  :: List.filter (fun (b, s) -> not (budget >= b && subset sleep s)) entries

(* The recursive DFS visit, shared verbatim between the sequential explorer
   below and the domain-sharded one in {!Shard}: a shard explores a root
   subtree by calling [visit] with its own stats/tables. [fpf] is the
   fingerprint in use (plain, or the symmetry-canonical one); [qfps], when
   given, switches quiescent accounting from per-visit events to distinct
   fingerprints, which is what makes per-shard quiescent counts mergeable
   by set union. *)
module Internal = struct
  type stats = {
    mutable s_visited : int;
    mutable s_revisit : int;
    mutable s_sleep : int;
    mutable s_transitions : int;
    mutable s_quiescent : int;
    mutable s_truncated : int;
  }

  let new_stats () =
    {
      s_visited = 0;
      s_revisit = 0;
      s_sleep = 0;
      s_transitions = 0;
      s_quiescent = 0;
      s_truncated = 0;
    }

  type table = (Sha256.digest, (int * string list) list) Hashtbl.t

  let fingerprint_for ~sym (system : system) =
    if not sym then system.fingerprint
    else
      match system.symmetry with
      | Some canon -> canon
      | None -> system.fingerprint

  (* [visit] runs with the state matching [path] materialized; [sleep] is
     the inherited sleep set (choices whose exploration here would be
     redundant with a sibling subtree already explored). *)
  let rec visit (system : system) ~fpf ~por ~stats ~(visited : table) ~qfps
      ~note ~path ~budget ~sleep =
    note path (system.violations ());
    let fp = Sha256.digest_string (fpf ()) in
    let sleep_canon = List.sort compare (List.map (fun ci -> ci.canon) sleep) in
    match Hashtbl.find_opt visited fp with
    | Some entries when dominated entries budget sleep_canon ->
      stats.s_revisit <- stats.s_revisit + 1
    | previous ->
      (match previous with
       | None -> stats.s_visited <- stats.s_visited + 1
       | Some _ -> ());
      Hashtbl.replace visited fp
        (insert_entry (Option.value ~default:[] previous) budget sleep_canon);
      let en = system.enabled () in
      if en = [] then begin
        (match qfps with
         | None -> stats.s_quiescent <- stats.s_quiescent + 1
         | Some t ->
           if not (Hashtbl.mem t fp) then begin
             Hashtbl.replace t fp ();
             stats.s_quiescent <- stats.s_quiescent + 1
           end);
        note path (system.quiescent_violations ())
      end
      else if budget = 0 then stats.s_truncated <- stats.s_truncated + 1
      else begin
        (* Dedupe by canonical key: two pending copies of one message are
           the same transition. Then explore left to right, letting later
           siblings sleep on earlier independent ones. *)
        let slept : (string, unit) Hashtbl.t = Hashtbl.create 8 in
        List.iter (fun ci -> Hashtbl.replace slept ci.canon ()) sleep;
        let explored = ref sleep in
        List.iter
          (fun ci ->
            if Hashtbl.mem slept ci.canon then stats.s_sleep <- stats.s_sleep + 1
            else begin
              let child_sleep = List.filter (fun b -> commutes b ci) !explored in
              stats.s_transitions <- stats.s_transitions + 1;
              (match system.snapshot with
               | Some snap ->
                 let restore = snap () in
                 ignore (system.apply ci.choice);
                 visit system ~fpf ~por ~stats ~visited ~qfps ~note
                   ~path:(path @ [ ci.choice ])
                   ~budget:(budget - 1) ~sleep:child_sleep;
                 restore ()
               | None ->
                 rematerialize system (path @ [ ci.choice ]);
                 visit system ~fpf ~por ~stats ~visited ~qfps ~note
                   ~path:(path @ [ ci.choice ])
                   ~budget:(budget - 1) ~sleep:child_sleep);
              Hashtbl.replace slept ci.canon ();
              if por then explored := !explored @ [ ci ]
            end)
          en
      end

  type walk = {
    w_fps : Sha256.digest list;
    w_transitions : int;
    w_quiescent : bool;
    w_truncated : bool;
    w_viols : violation list;
  }

  let max_steps = 200

  (* One random walk from [reset]: the fingerprint is recorded before each
     step; a violation ends the walk; truncation only when neither
     quiescence nor a violation stopped it. *)
  let walk (system : system) ~rng =
    system.reset ();
    let fps = Hashtbl.create 64 in
    let path = ref [] and viols = ref [] and hit = ref false in
    let note vs =
      List.iter
        (fun (check, detail) ->
          hit := true;
          if not (List.exists (fun v -> v.check = check) !viols) then
            viols := !viols @ [ { check; detail; schedule = !path; shrink_steps = 0 } ])
        vs
    in
    note (system.violations ());
    let steps = ref 0 and stop = ref false and quiescent = ref false in
    while (not !stop) && (not !hit) && !steps < max_steps do
      Hashtbl.replace fps (Sha256.digest_string (system.fingerprint ())) ();
      match system.enabled () with
      | [] ->
        quiescent := true;
        note (system.quiescent_violations ());
        stop := true
      | en ->
        let ci = Prng.pick_list rng en in
        ignore (system.apply ci.choice);
        incr steps;
        path := !path @ [ ci.choice ];
        note (system.violations ())
    done;
    {
      w_fps = Hashtbl.fold (fun fp () acc -> fp :: acc) fps [];
      w_transitions = !steps;
      w_quiescent = !quiescent;
      w_truncated = (not !stop) && not !hit;
      w_viols = !viols;
    }
end

let explore ?(por = true) ?(shrink = true) ?(sym = false) ~depth
    (system : system) =
  if depth < 1 then invalid_arg "Engine.explore: depth must be >= 1";
  let fpf = Internal.fingerprint_for ~sym system in
  let found : (string, violation) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  let note path vs =
    List.iter
      (fun (check, detail) ->
        if not (Hashtbl.mem found check) then begin
          Hashtbl.replace found check { check; detail; schedule = path; shrink_steps = 0 };
          order := check :: !order
        end)
      vs
  in
  let run_iteration bound =
    let stats = Internal.new_stats () in
    let visited : Internal.table = Hashtbl.create 4096 in
    system.reset ();
    Internal.visit system ~fpf ~por ~stats ~visited ~qfps:None ~note ~path:[]
      ~budget:bound ~sleep:[];
    stats
  in
  (* Iterative deepening: shallow bounds find the shortest counterexamples
     first; once an iteration runs without truncation the reachable graph is
     fully explored and deeper bounds cannot add states. *)
  let rec deepen bound =
    let stats = run_iteration bound in
    if stats.s_truncated = 0 || bound = depth then (stats, bound)
    else deepen (bound + 1)
  in
  let stats, _ = deepen 1 in
  let violations =
    List.rev_map (fun check -> Hashtbl.find found check) !order
    |> shrink_violations system ~shrink
  in
  {
    mode = Exhaustive { depth };
    visited = stats.s_visited;
    revisit_pruned = stats.s_revisit;
    sleep_pruned = stats.s_sleep;
    transitions = stats.s_transitions;
    quiescent = stats.s_quiescent;
    truncated = stats.s_truncated;
    complete = stats.s_truncated = 0;
    violations;
  }

(* ------------------------------------------------------------------ *)
(* Randomized walks *)

let random ?(shrink = true) ~seed ~iters (system : system) =
  let rng = Prng.of_int seed in
  let fps = Hashtbl.create 1024 in
  let transitions = ref 0 and quiescent = ref 0 and truncated = ref 0 in
  (* Walks until the first one that violates a check. *)
  let rec walks i =
    if i >= iters then []
    else begin
      let w = Internal.walk system ~rng in
      List.iter (fun fp -> Hashtbl.replace fps fp ()) w.w_fps;
      transitions := !transitions + w.w_transitions;
      if w.w_quiescent then incr quiescent;
      if w.w_truncated then incr truncated;
      if w.w_viols <> [] then w.w_viols else walks (i + 1)
    end
  in
  let violations = shrink_violations system ~shrink (walks 0) in
  {
    mode = Random { seed; iters };
    visited = Hashtbl.length fps;
    revisit_pruned = 0;
    sleep_pruned = 0;
    transitions = !transitions;
    quiescent = !quiescent;
    truncated = !truncated;
    complete = false;
    violations;
  }

(* ------------------------------------------------------------------ *)
(* Rendering *)

let mode_to_string = function
  | Exhaustive { depth } -> Printf.sprintf "exhaustive to depth %d" depth
  | Random { seed; iters } -> Printf.sprintf "random (seed %d, %d walks)" seed iters

let report_to_string r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%s: %s\n" (mode_to_string r.mode)
       (match r.mode with
        | Exhaustive _ when r.complete -> "state space exhausted"
        | Exhaustive _ -> "bounded (paths truncated at depth limit)"
        | Random _ -> if r.violations = [] then "no violation found" else "violation found"));
  Buffer.add_string b (Printf.sprintf "  states visited   : %d\n" r.visited);
  Buffer.add_string b (Printf.sprintf "  pruned (revisit) : %d\n" r.revisit_pruned);
  Buffer.add_string b (Printf.sprintf "  pruned (sleep)   : %d\n" r.sleep_pruned);
  Buffer.add_string b (Printf.sprintf "  transitions      : %d\n" r.transitions);
  Buffer.add_string b (Printf.sprintf "  quiescent states : %d\n" r.quiescent);
  Buffer.add_string b (Printf.sprintf "  truncated paths  : %d\n" r.truncated);
  Buffer.add_string b (Printf.sprintf "  violations       : %d\n" (List.length r.violations));
  List.iter
    (fun v ->
      Buffer.add_string b
        (Printf.sprintf "  VIOLATION %s: %s\n    schedule: %s (%d shrink attempts)\n"
           v.check v.detail
           (let s = Schedule.to_string v.schedule in
            if s = "" then "(empty)" else s)
           v.shrink_steps))
    r.violations;
  Buffer.contents b

let violation_to_json v =
  Json.Obj
    [
      ("check", Json.String v.check);
      ("detail", Json.String v.detail);
      ("schedule", Json.String (Schedule.to_string v.schedule));
      ("shrink_steps", Json.Int v.shrink_steps);
    ]

let report_to_json r =
  Json.Obj
    [
      ( "mode",
        match r.mode with
        | Exhaustive { depth } ->
          Json.Obj [ ("kind", Json.String "exhaustive"); ("depth", Json.Int depth) ]
        | Random { seed; iters } ->
          Json.Obj
            [
              ("kind", Json.String "random");
              ("seed", Json.Int seed);
              ("iters", Json.Int iters);
            ] );
      ("visited", Json.Int r.visited);
      ("revisit_pruned", Json.Int r.revisit_pruned);
      ("sleep_pruned", Json.Int r.sleep_pruned);
      ("transitions", Json.Int r.transitions);
      ("quiescent", Json.Int r.quiescent);
      ("truncated", Json.Int r.truncated);
      ("complete", Json.Bool r.complete);
      ("ok", Json.Bool (ok r));
      ("violations", Json.List (List.map violation_to_json r.violations));
    ]
