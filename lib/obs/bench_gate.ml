(* Bench-regression gate: diff a fresh BENCH_qsel.json against a committed
   baseline.

   [table] below is the one list of what is gated. Each entry is a
   section of the bench summary: where it sits, the fields that match a
   current row to a baseline row, and its checks. A check is a
   (label, field, rule) triple; one interpreter turns the table into
   verdicts, and [derive_baseline] is the table's projection onto keys and
   pinned fields.

   Hard checks key on properties of the *code*, not the runner: byte and
   message counts, seeded counters, agreement booleans, and the cross-size
   select-throughput ratio (a 2× slowdown at n=1024 doubles the ratio even
   though both absolute numbers move with the machine). Wall-clock numbers
   are report-only: they fail nothing, they just show the drift.

   Improvements pass silently — the gate only stops regressions; ratchet
   the baseline forward with [derive_baseline] (--update-baseline). *)

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let bench_schema = "qsel-bench/1"

let baseline_schema = "qsel-baseline/1"

type verdict = { name : string; ok : bool; detail : string; hard : bool }

let hard name ok detail = { name; ok; detail; hard = true }

let soft name ok detail = { name; ok; detail; hard = false }

let passed vs = List.for_all (fun v -> v.ok || not v.hard) vs

let render vs =
  let b = Buffer.create 256 in
  List.iter
    (fun v ->
      Buffer.add_string b
        (Printf.sprintf "  [%s] %-58s %s\n"
           (if v.ok then "ok" else if v.hard then "FAIL" else "warn")
           v.name v.detail))
    vs;
  Buffer.add_string b
    (if passed vs then "bench gate: PASS\n" else "bench gate: FAIL\n");
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* JSON plumbing — missing fields in either file are [Malformed], not
   silently-passing checks. *)

let field name j =
  match Json.member name j with
  | Some v -> v
  | None -> malformed "missing field %S" name

let at path j = List.fold_left (fun j k -> field k j) j path

let list_at path j =
  match at path j with
  | Json.List l -> l
  | _ -> malformed "field %S is not a list" (String.concat "." path)

let int_f name j = Json.to_int_exn (field name j)

let float_f name j = Json.to_float_exn (field name j)

let bool_f name j =
  match field name j with
  | Json.Bool v -> v
  | _ -> malformed "field %S is not a bool" name

(* Floats show to two places; everything else as JSON. *)
let show = function Json.Float x -> Printf.sprintf "%.2f" x | v -> Json.render v

(* ------------------------------------------------------------------ *)
(* Rules. Tolerances are named and stored in the baseline, so a deliberate
   loosening is a reviewed diff. *)

type rule =
  (* Pinned: read the baseline. *)
  | Pinned  (** equal to the baseline's value *)
  | Within of string  (** an int at most the baseline's × the tolerance *)
  | Spread_within of string
      (** across the section's rows: the field at the smallest key over the
          field at the largest, at most the baseline's quotient × the
          tolerance. Machine speed cancels out of the quotient. *)
  (* Hold on the current run alone. *)
  | Is of Json.t  (** equal to this constant *)
  | Is_true_if_run  (** true, or null when the run skipped it *)
  | At_most of string  (** a float at most the tolerance itself *)
  | Positive  (** a count above zero *)
  | Same_as of string  (** an int equal to the named field of the row *)
  | True_over of string  (** true, over a positive count of pairs *)
  (* Report-only: warn, never fail. *)
  | Speedup_from of int * float
      (** at least this factor once the row's key reaches the int *)
  | Drift of float  (** pinned; warn past the baseline × this factor *)

let pins = function
  | Pinned | Within _ | Spread_within _ | Drift _ -> true
  | _ -> false

let report_only = function Speedup_from _ | Drift _ -> true | _ -> false

let cross_row = function Spread_within _ -> true | _ -> false

let default_tolerances =
  [ ("bytes", 1.25); ("select_ratio", 1.75); ("alloc_abs", 128.0) ]

type section = {
  title : string;  (** verdict-name prefix *)
  at : string list;  (** path in the bench summary *)
  base_at : string list;  (** path in the baseline *)
  key : string list;  (** fields matching rows of a list; [] for one object *)
  checks : (string * string * rule) list;  (** label, field, rule *)
}

(* An empty label is filled in from the field and rule. *)
let label_of (label, f, rule) =
  if label <> "" then label
  else
    match rule with
    | Is (Json.Bool true) -> f
    | Is v -> f ^ " = " ^ Json.render v
    | At_most _ -> f ^ " within cap"
    | Drift _ -> "" (* the row's name alone *)
    | _ -> f

let verdict_name prefix label =
  match (prefix, label) with
  | "", l -> l
  | p, "" -> p
  | p, l -> p ^ ": " ^ l

(* One check on one row. [base] is forced only by rules that pin. *)
let eval ~tolerance ~prefix ~key ~base ~cur ((_, f, rule) as check) =
  let name = verdict_name prefix (label_of check) in
  let c = field f cur in
  let b () = field f (Lazy.force base) in
  match rule with
  | Pinned ->
    let b = b () in
    [
      hard name (c = b)
        (match c with
        | Json.Bool _ -> Printf.sprintf "current %s, baseline %s" (show c) (show b)
        | _ -> Printf.sprintf "%s vs baseline %s" (show c) (show b));
    ]
  | Within t ->
    let c = Json.to_int_exn c and b = Json.to_int_exn (b ()) in
    let cap = float_of_int b *. tolerance t in
    [
      hard name
        (float_of_int c <= cap)
        (Printf.sprintf "%d vs baseline %d (cap %.0f)" c b cap);
    ]
  | Is v -> [ hard name (c = v) (show c) ]
  | Is_true_if_run -> (
    match c with
    | Json.Null -> [ soft name true "not run (micro-only)" ]
    | Json.Bool ok -> [ hard name ok (string_of_bool ok) ]
    | _ -> malformed "field %S is neither null nor bool" f)
  | At_most t ->
    let x = Json.to_float_exn c and cap = tolerance t in
    [ hard name (x <= cap) (Printf.sprintf "%.0f B (cap %.0f)" x cap) ]
  | Positive ->
    let n = Json.to_int_exn c in
    [ hard name (n > 0) (Printf.sprintf "%d %s" n f) ]
  | Same_as other ->
    let a = Json.to_int_exn c and b = int_f other cur in
    [ hard name (a = b) (Printf.sprintf "%d of %d" a b) ]
  | True_over count ->
    let ok = bool_f f cur and n = int_f count cur in
    [ hard name (ok && n > 0) (Printf.sprintf "ok=%b over %d pairs" ok n) ]
  | Speedup_from (from, min) -> (
    match key with
    | [ Json.Int k ] when k >= from ->
      let x = Json.to_float_exn c in
      [
        soft name (x >= min)
          (Printf.sprintf "%.2fx (report-only: honest 1.0x on 1 core)" x);
      ]
    | _ -> [])
  | Drift factor -> (
    match (c, b ()) with
    | Json.Null, _ | _, Json.Null -> []
    | c, b ->
      let c = Json.to_float_exn c and b = Json.to_float_exn b in
      if b > 0.0 && c > b *. factor then
        [
          soft name false
            (Printf.sprintf "%.0f ns vs baseline %.0f ns (%.1fx)" c b (c /. b));
        ]
      else [])
  | Spread_within _ -> []

let spread ~key ~tolerance ~cur_rows ~base_rows (label, f, rule) =
  match rule with
  | Spread_within t -> (
    let quotient rows =
      let points = List.map (fun r -> (int_f key r, float_f f r)) rows in
      match List.sort compare points with
      | [] | [ _ ] -> None
      | (_, smallest) :: _ as l ->
        let largest = snd (List.nth l (List.length l - 1)) in
        if largest <= 0.0 then None else Some (smallest /. largest)
    in
    match (quotient base_rows, quotient cur_rows) with
    | Some b, Some c ->
      let cap = b *. tolerance t in
      [
        hard label (c <= cap)
          (Printf.sprintf "%.1f vs baseline %.1f (cap %.1f)" c b cap);
      ]
    | Some _, None -> [ hard label false "missing in current" ]
    | None, _ -> [])
  | _ -> []

(* A row's key values; a baseline section that pins nothing stores bare
   keys. *)
let key_of sec row =
  match row with Json.Obj _ -> List.map (fun k -> field k row) sec.key | v -> [ v ]

let render_key sec vals =
  String.concat "/"
    (List.map2
       (fun k v -> match v with Json.String s -> s | v -> k ^ "=" ^ Json.render v)
       sec.key vals)

let check_section ~tolerance ~current ~baseline sec =
  match sec.key with
  | [] ->
    let base = lazy (at sec.base_at baseline) in
    List.concat_map
      (eval ~tolerance ~prefix:sec.title ~key:[] ~base ~cur:(at sec.at current))
      sec.checks
  | key ->
    let cur_rows = list_at sec.at current in
    let base_rows = list_at sec.base_at baseline in
    let rows =
      List.concat_map
        (fun base ->
          let k = key_of sec base in
          let prefix = sec.title ^ " " ^ render_key sec k in
          match List.find_opt (fun c -> key_of sec c = k) cur_rows with
          | Some cur ->
            List.concat_map
              (eval ~tolerance ~prefix ~key:k ~base:(Lazy.from_val base) ~cur)
              sec.checks
          | None when List.for_all (fun (_, _, r) -> report_only r) sec.checks -> []
          | None -> [ hard (prefix ^ ": present in current run") false "point missing" ])
        base_rows
    in
    rows
    @ List.concat_map
        (spread ~key:(List.hd key) ~tolerance ~cur_rows ~base_rows)
        sec.checks

(* What the baseline keeps of one current row: its key and row-pinned
   fields in the summary's order, then the fields a cross-row rule pins. A
   section that pins nothing keeps its bare key. *)
let project sec row =
  let pinned = List.filter (fun (_, _, r) -> pins r) sec.checks in
  let cross, own = List.partition (fun (_, _, r) -> cross_row r) pinned in
  let own = List.map (fun (_, f, _) -> f) own in
  match (sec.key, pinned, row) with
  | [ k ], [], _ -> field k row
  | _, _, Json.Obj fields ->
    List.iter (fun f -> ignore (field f row)) (sec.key @ own);
    Json.Obj
      (List.filter (fun (f, _) -> List.mem f sec.key || List.mem f own) fields
      @ List.map (fun (_, f, _) -> (f, field f row)) cross)
  | _ -> malformed "section %S is not an object" sec.title

(* Set [v] at [path], merging objects and appending new members. *)
let rec put path v doc =
  match (path, doc, v) with
  | [], Json.Obj a, Json.Obj b -> Json.Obj (a @ b)
  | [], _, _ -> v
  | k :: rest, Json.Obj fields, _ ->
    if List.mem_assoc k fields then
      Json.Obj
        (List.map (fun (k', x) -> (k', if k' = k then put rest v x else x)) fields)
    else Json.Obj (fields @ [ (k, put rest v (Json.Obj [])) ])
  | _ -> malformed "cannot set %S" (String.concat "." path)

(* ------------------------------------------------------------------ *)
(* The table: every gated section, in verdict order. *)

let chk ?(label = "") f rule = (label, f, rule)

let section ?base_at ?(key = []) title at checks =
  { title; at; base_at = Option.value base_at ~default:at; key; checks }

let holds = Is (Json.Bool true)

let zero = Is (Json.Int 0)

let root =
  section "" []
    [
      chk "quick" Pinned ~label:"quick flag matches baseline";
      chk "experiments_ok" Is_true_if_run;
    ]

let sections =
  [
    (* E15 scaling sweep: gossip bytes, the zero-byte idle tick, per-packet
       idle allocation and the incremental-vs-scratch agreement bits. *)
    section "scaling" [ "scaling" ] ~key:[ "n" ]
      [
        chk "full_push_bytes" (Within "bytes");
        chk "delta_sync_bytes" (Within "bytes");
        chk "delta_idle_bytes" zero;
        chk "idle_alloc_per_packet" (At_most "alloc_abs");
        chk "lex_agrees" holds;
        chk "mis_agrees" holds;
        chk "peer_converged" holds;
        chk "select_ops_per_sec" (Spread_within "select_ratio")
          ~label:"select throughput ratio (smallest n / largest n)";
      ];
    (* Seeded commission-fault conviction counters, one row per stack. *)
    section "commission" [ "commission" ] ~key:[ "stack" ]
      [ chk "proofs" Pinned; chk "forgeries" Pinned; chk "violations" zero ];
    (* E16 churn sweep: deterministic apart from the reconfig throughput. *)
    section "churn" [ "churn" ] ~key:[ "n" ]
      [
        chk "joins" Pinned;
        chk "leaves" Pinned;
        chk "ejects" Pinned;
        chk "quorum_changes" Pinned;
        chk "availability" (Is (Json.Float 1.0));
        chk "remap_consistent" holds;
        chk "departed_clean" holds;
      ];
    (* E17 multicore exploration: every worker count must reproduce the
       jobs=1 report and state set; throughput belongs to the runner — a
       single-core box honestly reports 1.0x — so speedup is report-only. *)
    section "explore" [ "explore"; "points" ] ~base_at:[ "explore"; "jobs" ]
      ~key:[ "jobs" ]
      [
        chk "identical_report" holds ~label:"report identical to jobs=1";
        chk "same_states" holds ~label:"same visited-state set";
        chk "speedup" (Speedup_from (4, 2.5)) ~label:"fuzz speedup >= 2.5x";
      ];
    section "explore exhaustive" [ "explore"; "exhaustive" ] ~base_at:[ "explore" ]
      [
        chk "sets_agree" holds ~label:"sharded set matches sequential";
        chk "sym_collapses" holds ~label:"symmetry collapses states";
        chk "seq_visited" Pinned;
        chk "sym_visited" Pinned;
        chk "sym_visited_n5" Pinned;
        chk "sym_candidates_n5" Pinned;
      ];
    (* E18 policy sweep: fully deterministic, so every point is pinned; the
       intersection verdicts hold from the current run alone. *)
    section "policy" [ "policy"; "points" ] ~key:[ "policy" ]
      [
        chk "max_exposure" Pinned;
        chk "outages" Pinned;
        chk "quorum_changes" Pinned;
        chk "availability" Pinned ~label:"availability matches";
        chk "repairs_clean" holds;
        chk "agreement" holds;
        chk "t3_ok" holds;
      ];
    section "policy intersection" [ "policy"; "intersection" ]
      [
        chk "ok" holds ~label:"every cross-policy group ok";
        chk "pairs" Positive ~label:"groups non-vacuous";
        chk "sampled_ok" (True_over "sampled_pairs") ~label:"sampled n=1024 ok";
      ];
    (* Real runtime: scripted component counters are pinned; the loopback
       cluster's safety bits hold from the current run; its commit latency
       is the runner's wall clock and is not gated. *)
    section "runtime component" [ "runtime"; "component" ]
      [
        chk "mailbox_shed" Pinned;
        chk "dedup_dropped" Pinned;
        chk "corrupt_rejected" Pinned;
        chk "reconnected" holds;
      ];
    section "runtime cluster" [ "runtime"; "cluster" ]
      [
        chk "committed" (Same_as "requests") ~label:"full workload committed";
        chk "prefix_agreement" holds ~label:"prefix agreement";
        chk "violations" zero ~label:"monitor violations = 0";
        chk "nemesis_unsupported" zero ~label:"no unsupported nemesis phases";
      ];
    (* Durable-log write volume: store bytes per commit early and late in
       one deterministic run, pinned; the later window within 1.5x of the
       earlier holds from the current run alone. *)
    section "durability" [ "durability" ]
      [
        chk "first_bytes_per_commit" Pinned ~label:"store bytes/commit, commits 1-100";
        chk "later_bytes_per_commit" Pinned ~label:"store bytes/commit, commits 301-400";
        chk "level" holds ~label:"commits 301-400 within 1.5x of commits 1-100";
      ];
    (* Signing work per commit in one happy run per stack variant: signs,
       verifies and SHA-256 compressions, all pinned. *)
    section "crypto" [ "crypto" ] ~key:[ "variant" ]
      [
        chk "signs_per_commit" Pinned;
        chk "verifies_per_commit" Pinned;
        chk "compressions_per_commit" Pinned;
      ];
    (* Absolute ns/run: the runner's, not the code's. *)
    section "ns" [ "results" ] ~key:[ "group"; "name" ] [ chk "ns_per_run" (Drift 1.5) ];
  ]

let table = root :: sections

(* ------------------------------------------------------------------ *)

let check ~current ~baseline =
  let cs = Json.to_string_exn (field "schema" current) in
  let bs = Json.to_string_exn (field "schema" baseline) in
  let schema_ok =
    [
      hard "current schema" (cs = bench_schema) cs;
      hard "baseline schema" (bs = baseline_schema) bs;
    ]
  in
  if not (passed schema_ok) then schema_ok
  else
    let tolerance name =
      match Json.member "tolerances" baseline with
      | Some t -> float_f name t
      | None -> List.assoc name default_tolerances
    in
    List.concat_map (check_section ~tolerance ~current ~baseline) table

let derive_baseline bench =
  if Json.to_string_exn (field "schema" bench) <> bench_schema then
    malformed "derive_baseline: not a %s file" bench_schema;
  let add doc sec =
    match sec.key with
    | [] when not (List.exists (fun (_, _, r) -> pins r) sec.checks) -> doc
    | [] -> put sec.base_at (project sec (at sec.at bench)) doc
    | _ -> put sec.base_at (Json.List (List.map (project sec) (list_at sec.at bench))) doc
  in
  let tolerances =
    Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) default_tolerances)
  in
  List.fold_left add
    (add (Json.Obj [ ("schema", Json.String baseline_schema) ]) root
    |> put [ "tolerances" ] tolerances)
    sections
