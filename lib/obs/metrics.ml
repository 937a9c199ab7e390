module Stats = Qs_stdx.Stats
module Domainpool = Qs_stdx.Domainpool

type labels = (string * string) list

type counter = { mutable c : int }

type gauge = { mutable g : float }

type histogram = { mutable samples : float list (* reversed *); mutable hn : int }

type cell = C of counter | G of gauge | H of histogram

type t = {
  cells : (string * labels, cell) Hashtbl.t;
  kinds : (string, string) Hashtbl.t; (* name -> kind, for mismatch detection *)
}

let create () = { cells = Hashtbl.create 64; kinds = Hashtbl.create 64 }

(* One registry per domain: worker domains spawned by the sharded explorer
   build whole instrumented systems, and a shared Hashtbl would be a data
   race. On OCaml 4.14 (serial Domainpool) this is exactly one registry,
   same as the old process-global default. *)
let default_local = Domainpool.local create

let default () = Domainpool.get default_local

let normalize labels =
  let l = List.sort_uniq (fun (a, _) (b, _) -> compare a b) labels in
  if List.length l <> List.length labels then
    invalid_arg "Metrics: duplicate label key";
  l

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let acquire m ~labels name fresh =
  let labels = normalize labels in
  let key = (name, labels) in
  match Hashtbl.find_opt m.cells key with
  | Some cell ->
    let k = kind_name cell in
    if k <> kind_name (fresh ()) then
      invalid_arg
        (Printf.sprintf "Metrics: %s already registered as a %s" name k);
    cell
  | None ->
    let cell = fresh () in
    (match Hashtbl.find_opt m.kinds name with
     | Some k when k <> kind_name cell ->
       invalid_arg
         (Printf.sprintf "Metrics: %s already registered as a %s" name k)
     | Some _ -> ()
     | None -> Hashtbl.replace m.kinds name (kind_name cell));
    Hashtbl.replace m.cells key cell;
    cell

let counter ?(m = default ()) ?(labels = []) name =
  match acquire m ~labels name (fun () -> C { c = 0 }) with
  | C c -> c
  | _ -> assert false

let gauge ?(m = default ()) ?(labels = []) name =
  match acquire m ~labels name (fun () -> G { g = 0.0 }) with
  | G g -> g
  | _ -> assert false

let histogram ?(m = default ()) ?(labels = []) name =
  match acquire m ~labels name (fun () -> H { samples = []; hn = 0 }) with
  | H h -> h
  | _ -> assert false

let inc ?(by = 1) c =
  if by < 0 then invalid_arg "Metrics.inc: counters are monotonic";
  c.c <- c.c + by

let set g v = g.g <- v

let set_max g v = if v > g.g then g.g <- v

let observe h v =
  h.samples <- v :: h.samples;
  h.hn <- h.hn + 1

let inc_c ?m ?labels ?by name = inc ?by (counter ?m ?labels name)

let set_g ?m ?labels name v = set (gauge ?m ?labels name) v

let observe_h ?m ?labels name v = observe (histogram ?m ?labels name) v

let counter_value c = c.c

let gauge_value g = g.g

let histogram_count h = h.hn

let histogram_samples h = List.rev h.samples

let find ?(m = default ()) ?(labels = []) name =
  Hashtbl.find_opt m.cells (name, normalize labels)

let find_counter ?m ?labels name =
  match find ?m ?labels name with Some (C c) -> Some c.c | _ -> None

let find_gauge ?m ?labels name =
  match find ?m ?labels name with Some (G g) -> Some g.g | _ -> None

let reset ?(m = default ()) () =
  Hashtbl.iter
    (fun _ cell ->
      match cell with
      | C c -> c.c <- 0
      | G g -> g.g <- 0.0
      | H h ->
        h.samples <- [];
        h.hn <- 0)
    m.cells

(* ------------------------------------------------------------------ *)
(* Snapshot *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { count : int; summary : Stats.summary option }

type point = { name : string; labels : labels; value : value }

let snapshot ?(m = default ()) () =
  let points =
    Hashtbl.fold
      (fun (name, labels) cell acc ->
        let value =
          match cell with
          | C c -> Counter c.c
          | G g -> Gauge g.g
          | H h ->
            let summary =
              if h.hn = 0 then None else Some (Stats.summarize (List.rev h.samples))
            in
            Histogram { count = h.hn; summary }
        in
        { name; labels; value } :: acc)
      m.cells []
  in
  List.sort (fun a b -> compare (a.name, a.labels) (b.name, b.labels)) points

let series_id p =
  match p.labels with
  | [] -> p.name
  | ls ->
    Printf.sprintf "%s{%s}" p.name
      (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ls))

let render_text points =
  let line p =
    match p.value with
    | Counter v -> Printf.sprintf "counter   %-46s %d" (series_id p) v
    | Gauge v -> Printf.sprintf "gauge     %-46s %g" (series_id p) v
    | Histogram { count = 0; _ } ->
      Printf.sprintf "histogram %-46s n=0" (series_id p)
    | Histogram { summary = Some s; _ } ->
      Format.asprintf "histogram %-46s %a" (series_id p) Stats.pp_summary s
    | Histogram { summary = None; _ } ->
      Printf.sprintf "histogram %-46s n=%d" (series_id p) 0
  in
  String.concat "\n" (List.map line points)

let to_json points =
  let labels_json ls = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) ls) in
  let point_json p =
    let base = [ ("name", Json.String p.name); ("labels", labels_json p.labels) ] in
    let rest =
      match p.value with
      | Counter v -> [ ("kind", Json.String "counter"); ("value", Json.Int v) ]
      | Gauge v -> [ ("kind", Json.String "gauge"); ("value", Json.Float v) ]
      | Histogram { count; summary } ->
        [ ("kind", Json.String "histogram"); ("count", Json.Int count) ]
        @ (match summary with
           | None -> []
           | Some s ->
             [
               ("mean", Json.Float s.Stats.mean);
               ("stddev", Json.Float s.Stats.stddev);
               ("min", Json.Float s.Stats.min);
               ("median", Json.Float s.Stats.median);
               ("p95", Json.Float s.Stats.p95);
               ("max", Json.Float s.Stats.max);
             ])
    in
    Json.Obj (base @ rest)
  in
  Json.List (List.map point_json points)

let render_json points = Json.render (Json.Obj [ ("metrics", to_json points) ])
