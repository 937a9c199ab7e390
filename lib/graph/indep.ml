module Bitset = Qs_stdx.Bitset

let is_independent g vs =
  let rec loop = function
    | [] -> true
    | v :: rest -> List.for_all (fun u -> not (Graph.has_edge g v u)) rest && loop rest
  in
  loop vs

(* Exact maximum independent set on the subgraph induced by [active],
   by branching on a maximum-degree vertex with the standard reductions:
   - isolated vertices are always taken;
   - for a degree-1 vertex v, taking v is always optimal;
   - otherwise branch on a max-degree vertex w: either exclude w, or take w
     and drop its closed neighborhood. *)
let rec mis_size g active =
  (* Find max-degree vertex within [active]; count isolated on the fly. *)
  let best_v = ref (-1) and best_deg = ref (-1) in
  let isolated = ref 0 in
  let degree_one = ref (-1) in
  Bitset.iter
    (fun v ->
      let d =
        Bitset.fold (fun u acc -> if Bitset.mem active u then acc + 1 else acc)
          (Graph.neighbor_set g v) 0
      in
      if d = 0 then incr isolated
      else begin
        if d = 1 && !degree_one < 0 then degree_one := v;
        if d > !best_deg then begin
          best_deg := d;
          best_v := v
        end
      end)
    active;
  if !best_v < 0 then Bitset.cardinal active (* edgeless: take everything *)
  else if !degree_one >= 0 then begin
    (* Reduction: take the degree-1 vertex, remove it and its neighbor. *)
    let v = !degree_one in
    let next = Bitset.copy active in
    Bitset.remove next v;
    Bitset.iter (fun u -> if Bitset.mem next u then Bitset.remove next u) (Graph.neighbor_set g v);
    1 + mis_size g next
  end
  else begin
    let w = !best_v in
    (* Branch 1: exclude w. *)
    let without = Bitset.copy active in
    Bitset.remove without w;
    let excl = mis_size g without in
    (* Branch 2: include w, drop N[w]. *)
    let with_w = Bitset.copy without in
    Bitset.iter (fun u -> if Bitset.mem with_w u then Bitset.remove with_w u) (Graph.neighbor_set g w);
    let incl = 1 + mis_size g with_w in
    max excl incl
  end

let full_active g =
  let b = Bitset.create (Graph.n g) in
  List.iter (Bitset.add b) (Graph.vertices g);
  b

let max_independent_set_size g = mis_size g (full_active g)

let mis_within g active = mis_size g active

let exists_independent_set g q =
  q <= 0 || max_independent_set_size g >= q

let min_vertex_cover_size g = Graph.n g - max_independent_set_size g

(* Greedy lexicographic construction with exact feasibility checks: include
   the smallest candidate vertex whenever the remaining candidates can still
   complete an independent set of the target size. *)
let lex_first_independent_set g q =
  let n = Graph.n g in
  if q < 0 then invalid_arg "Indep.lex_first_independent_set: negative size";
  if q > n then None
  else if not (exists_independent_set g q) then None
  else begin
    let chosen = ref [] in
    let chosen_count = ref 0 in
    (* Candidates still allowed: greater than the cursor and non-adjacent to
       all chosen vertices. We maintain the non-adjacency part. *)
    let allowed = full_active g in
    let v = ref 0 in
    while !chosen_count < q && !v < n do
      if Bitset.mem allowed !v then begin
        (* Feasibility of including !v: candidates are allowed vertices > v
           that are not neighbors of v. *)
        let future = Bitset.copy allowed in
        Bitset.remove future !v;
        for u = 0 to !v - 1 do
          if Bitset.mem future u then Bitset.remove future u
        done;
        Bitset.iter
          (fun u -> if Bitset.mem future u then Bitset.remove future u)
          (Graph.neighbor_set g !v);
        let need = q - !chosen_count - 1 in
        if need <= 0 || mis_size g future >= need then begin
          chosen := !v :: !chosen;
          incr chosen_count;
          Bitset.remove allowed !v;
          Bitset.iter
            (fun u -> if Bitset.mem allowed u then Bitset.remove allowed u)
            (Graph.neighbor_set g !v)
        end
        (* else skipping !v: it stays out simply by advancing the cursor,
           because inclusion is only ever attempted at the cursor. *)
      end;
      incr v
    done;
    if !chosen_count = q then Some (List.rev !chosen) else None
  end
