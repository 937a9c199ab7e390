(* In-memory span recorder for the traced run.

   A span has a name ("layer.what"), a start, an end, the span open around
   it when it started (its parent) and, where the wrapper can see one, the
   client request id. Self time is a span's duration minus the time its
   child spans cover; it is aggregated per name as spans close, so the
   split needs no post-processing. The first [keep] spans are also kept
   whole and written out at exit.

   The recorder is single-threaded: in the simulator everything runs on one
   thread, and over TCP every wrapped call happens under the runtime's core
   lock (driver slices, and the benchmark's own client under
   [Corelock.with_lock]), so spans never interleave. *)

let on = ref false

(* Whether spans, samples and counts are being recorded: only inside a
   measured phase, so the split covers exactly the wall time measured. *)
let active = ref false

let now = Unix.gettimeofday

type frame = {
  name : string;
  start : float;
  mutable child : float;
  id : int;
  parent : int;
  rid : int;
}

type span = {
  s_name : string;
  s_start : float;
  s_stop : float;
  s_id : int;
  s_parent : int;
  s_rid : int;
}

type agg = { mutable count : int; mutable total : float; mutable self : float }

let stack : frame list ref = ref []

let aggs : (string, agg) Hashtbl.t = Hashtbl.create 32

let keep = 100_000

let kept : span list ref = ref []

let kept_n = ref 0

let next_id = ref 0

let samples : (string, float list ref) Hashtbl.t = Hashtbl.create 16

let counts : (string, int ref) Hashtbl.t = Hashtbl.create 16

let reset () =
  stack := [];
  Hashtbl.reset aggs;
  kept := [];
  kept_n := 0;
  next_id := 0;
  Hashtbl.reset samples;
  Hashtbl.reset counts

let agg name =
  match Hashtbl.find_opt aggs name with
  | Some a -> a
  | None ->
    let a = { count = 0; total = 0.; self = 0. } in
    Hashtbl.add aggs name a;
    a

let enter name ~rid =
  let parent = match !stack with f :: _ -> f.id | [] -> -1 in
  incr next_id;
  let f = { name; start = now (); child = 0.; id = !next_id; parent; rid } in
  stack := f :: !stack;
  f

let leave f =
  let stop = now () in
  let dur = stop -. f.start in
  (match !stack with
   | top :: rest when top == f -> stack := rest
   | _ -> stack := List.filter (fun g -> g != f) !stack);
  (match !stack with p :: _ -> p.child <- p.child +. dur | [] -> ());
  let a = agg f.name in
  a.count <- a.count + 1;
  a.total <- a.total +. dur;
  a.self <- a.self +. (dur -. f.child);
  if !kept_n < keep then begin
    incr kept_n;
    kept :=
      { s_name = f.name; s_start = f.start; s_stop = stop; s_id = f.id; s_parent = f.parent;
        s_rid = f.rid }
      :: !kept
  end

let span name ?(rid = -1) f =
  if not !active then f ()
  else
    let fr = enter name ~rid in
    match f () with
    | v ->
      leave fr;
      v
    | exception e ->
      leave fr;
      raise e

let sample name v =
  if !active then
  match Hashtbl.find_opt samples name with
  | Some r -> r := v :: !r
  | None -> Hashtbl.add samples name (ref [ v ])

let samples_of name = match Hashtbl.find_opt samples name with Some r -> !r | None -> []

(* Every sample series whose name starts with [prefix], sorted by name. *)
let samples_with prefix =
  let lp = String.length prefix in
  Hashtbl.fold
    (fun name r acc ->
      if String.length name >= lp && String.sub name 0 lp = prefix then (name, !r) :: acc else acc)
    samples []
  |> List.sort compare

let count name k =
  if !active then
  match Hashtbl.find_opt counts name with
  | Some r -> r := !r + k
  | None -> Hashtbl.add counts name (ref k)

let count_of name = match Hashtbl.find_opt counts name with Some r -> !r | None -> 0

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Self time per layer, summed over every span name of that layer. *)
let self_by_layer () =
  Hashtbl.fold
    (fun name a acc ->
      let l = layer_of name in
      let prev = Option.value ~default:0. (List.assoc_opt l acc) in
      (l, prev +. a.self) :: List.remove_assoc l acc)
    aggs []
  |> List.sort compare

let self_of name = match Hashtbl.find_opt aggs name with Some a -> a.self | None -> 0.

let count_of_span name = match Hashtbl.find_opt aggs name with Some a -> a.count | None -> 0

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\":%S,\"start\":%.6f,\"end\":%.6f,\"id\":%d,\"parent\":%d,\"rid\":%d}\n" s.s_name
        s.s_start s.s_stop s.s_id s.s_parent s.s_rid)
    (List.rev !kept);
  close_out oc
