module Bitset = Qs_stdx.Bitset
module State_key = Qs_stdx.State_key

(* Row storage: one flat row-major Bigarray of native ints (unboxed, no
   write barrier, one bounds check per access) plus, per row, a bitset of
   nonzero columns and a version counter. The bitset makes every whole-row
   scan (merges, graph construction, max_epoch, serialization) cost
   O(words + nonzero cells) instead of O(n); the version counter is the
   delta-gossip layer's change detector — a row whose version a peer has
   already acked is never re-encoded, re-copied or re-shipped. *)

type ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type watcher = {
  on_raise : suspector:int -> suspect:int -> epoch:int -> unit;
  on_reset : unit -> unit;
}

type t = {
  size : int;
  cells : ba;
  nonzero : Bitset.t array;
  versions : int array;
  mutable watcher : watcher option;
}

let create size =
  if size <= 0 then invalid_arg "Suspicion_matrix.create";
  let cells = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (size * size) in
  Bigarray.Array1.fill cells 0;
  {
    size;
    cells;
    nonzero = Array.init size (fun _ -> Bitset.create size);
    versions = Array.make size 0;
    watcher = None;
  }

let n t = t.size

let set_watcher t ~on_raise ~on_reset = t.watcher <- Some { on_raise; on_reset }

let clear_watcher t = t.watcher <- None

let copy t =
  let cells = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (t.size * t.size) in
  Bigarray.Array1.blit t.cells cells;
  {
    size = t.size;
    cells;
    nonzero = Array.map Bitset.copy t.nonzero;
    versions = Array.copy t.versions;
    watcher = None; (* a copy is a snapshot: never fire the original's hooks *)
  }

let check t i =
  if i < 0 || i >= t.size then invalid_arg "Suspicion_matrix: index out of range"

let cell t l k = t.cells.{(l * t.size) + k}

(* Every state change funnels through here: cells only ever go up (the
   join-semilattice order), so one code path maintains the nonzero mask,
   bumps the row version and notifies the watcher (the selectors'
   incremental suspect-graph view). *)
let raise_cell t l k v =
  t.cells.{(l * t.size) + k} <- v;
  Bitset.add t.nonzero.(l) k;
  t.versions.(l) <- t.versions.(l) + 1;
  match t.watcher with
  | None -> ()
  | Some w -> w.on_raise ~suspector:l ~suspect:k ~epoch:v

let get t ~suspector ~suspect =
  check t suspector;
  check t suspect;
  cell t suspector suspect

let record t ~suspector ~suspect ~epoch =
  check t suspector;
  check t suspect;
  if suspector = suspect then invalid_arg "Suspicion_matrix.record: self-suspicion";
  if epoch > cell t suspector suspect then raise_cell t suspector suspect epoch

let row t i =
  check t i;
  Array.init t.size (fun k -> cell t i k)

let row_version t i =
  check t i;
  t.versions.(i)

let sparse_row t i =
  check t i;
  let m = Bitset.cardinal t.nonzero.(i) in
  let out = Array.make m (0, 0) in
  let j = ref 0 in
  Bitset.iter
    (fun k ->
      out.(!j) <- (k, cell t i k);
      incr j)
    t.nonzero.(i);
  out

let merge_row t ~owner incoming =
  check t owner;
  if Array.length incoming <> t.size then invalid_arg "Suspicion_matrix.merge_row: bad width";
  let changed = ref false in
  for k = 0 to t.size - 1 do
    if k <> owner && incoming.(k) > cell t owner k then begin
      raise_cell t owner k incoming.(k);
      changed := true
    end
  done;
  !changed

let merge_cells t ~owner cells =
  check t owner;
  let changed = ref false in
  Array.iter
    (fun (k, v) ->
      check t k;
      if v < 0 then invalid_arg "Suspicion_matrix.merge_cells: negative cell";
      if k <> owner && v > cell t owner k then begin
        raise_cell t owner k v;
        changed := true
      end)
    cells;
  !changed

let blit ~src ~dst =
  if src.size <> dst.size then invalid_arg "Suspicion_matrix.blit: size mismatch";
  Bigarray.Array1.blit src.cells dst.cells;
  for l = 0 to src.size - 1 do
    Bitset.clear dst.nonzero.(l);
    Bitset.union_into dst.nonzero.(l) src.nonzero.(l);
    (* A blit may lower cells (snapshot restore); versions stay monotone so
       delta peers re-ship rather than miss the change. *)
    dst.versions.(l) <- dst.versions.(l) + 1
  done;
  match dst.watcher with None -> () | Some w -> w.on_reset ()

let merge t other =
  if t.size <> other.size then invalid_arg "Suspicion_matrix.merge: size mismatch";
  let changed = ref false in
  for l = 0 to t.size - 1 do
    Bitset.iter
      (fun k ->
        let v = cell other l k in
        if k <> l && v > cell t l k then begin
          raise_cell t l k v;
          changed := true
        end)
      other.nonzero.(l)
  done;
  !changed

(* Reconfiguration: carry the surviving cells into a matrix over the new
   slot space. New slot [i] inherits old slot [of_new i]'s row/column;
   fresh slots ([of_new i < 0]) start all-zero, and cells involving a
   removed process are simply not carried (its suspicions die with it).
   Versions restart at the carried rows' content — the result is a new
   matrix identity, so delta peers are reset by the caller, never fooled. *)
let remap t ~n:size ~of_new =
  if size <= 0 then invalid_arg "Suspicion_matrix.remap";
  let r = create size in
  for i = 0 to size - 1 do
    let oi = of_new i in
    if oi >= 0 then begin
      check t oi;
      for j = 0 to size - 1 do
        let oj = of_new j in
        if j <> i && oj >= 0 then begin
          check t oj;
          let v = cell t oi oj in
          if v > 0 then raise_cell r i j v
        end
      done
    end
  done;
  r

let equal a b =
  a.size = b.size
  && Array.for_all2 Bitset.equal a.nonzero b.nonzero
  &&
  let ok = ref true in
  for l = 0 to a.size - 1 do
    Bitset.iter (fun k -> if cell a l k <> cell b l k then ok := false) a.nonzero.(l)
  done;
  !ok

let iter_nonzero t f =
  for l = 0 to t.size - 1 do
    Bitset.iter (fun k -> f ~suspector:l ~suspect:k ~epoch:(cell t l k)) t.nonzero.(l)
  done

let suspect_graph t ~epoch =
  let g = Qs_graph.Graph.create t.size in
  for l = 0 to t.size - 1 do
    Bitset.iter
      (fun k -> if cell t l k >= epoch then Qs_graph.Graph.add_edge g l k)
      t.nonzero.(l)
  done;
  g

let max_epoch t =
  let best = ref 0 in
  for l = 0 to t.size - 1 do
    Bitset.iter (fun k -> if cell t l k > !best then best := cell t l k) t.nonzero.(l)
  done;
  !best

let to_rows t = Array.init t.size (fun l -> row t l)

let of_rows rows =
  let size = Array.length rows in
  if size = 0 then invalid_arg "Suspicion_matrix.of_rows: empty";
  Array.iter
    (fun r ->
      if Array.length r <> size then
        invalid_arg "Suspicion_matrix.of_rows: not square")
    rows;
  for l = 0 to size - 1 do
    for k = 0 to size - 1 do
      if rows.(l).(k) < 0 then invalid_arg "Suspicion_matrix.of_rows: negative cell";
      if l = k && rows.(l).(k) <> 0 then
        invalid_arg "Suspicion_matrix.of_rows: self-suspicion"
    done
  done;
  let t = create size in
  for l = 0 to size - 1 do
    for k = 0 to size - 1 do
      if rows.(l).(k) > 0 then raise_cell t l k rows.(l).(k)
    done
  done;
  t

(* Sparse: a matrix here holds a few nonzero cells, each packed into one
   int over its labels, written as a sorted set with a -1 terminator. *)
let write_key t key =
  State_key.add key t.size;
  let from = State_key.length key in
  for l = 0 to t.size - 1 do
    Bitset.iter (fun k -> State_key.add key (State_key.pack key l k (cell t l k))) t.nonzero.(l)
  done;
  State_key.sort_from key from;
  State_key.add key (-1)

let pp ppf t =
  for l = 0 to t.size - 1 do
    Format.fprintf ppf "@[<h>%a: %a@]@."
      Pid.pp l
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
         Format.pp_print_int)
      (Array.to_list (row t l))
  done
