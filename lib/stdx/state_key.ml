type t = {
  mutable buf : int array;
  mutable len : int;
  mutable label : int array;
  mutable inv : int array;
  (* [sort_records]' copy of the records and their offsets and lengths *)
  mutable scratch : int array;
  mutable offs : int array;
  mutable lens : int array;
  mutable bytes : Bytes.t; (* [to_string]'s output buffer *)
}

let create () =
  { buf = [||]; len = 0; label = [||]; inv = [||]; scratch = [||]; offs = [||]; lens = [||];
    bytes = Bytes.empty }

let reset t label =
  t.len <- 0;
  t.label <- label;
  let n = Array.length label in
  if Array.length t.inv <> n then t.inv <- Array.make n (-1) else Array.fill t.inv 0 n (-1);
  Array.iteri (fun p l -> if l >= 0 && l < n then t.inv.(l) <- p) label

let length t = t.len

let grow t need =
  let cap = max need (max 256 (2 * Array.length t.buf)) in
  let buf = Array.make cap 0 in
  Array.blit t.buf 0 buf 0 t.len;
  t.buf <- buf

let add t x =
  if t.len = Array.length t.buf then grow t (t.len + 1);
  Array.unsafe_set t.buf t.len x;
  t.len <- t.len + 1

let add_bool t b = add t (if b then 1 else 0)

let add_string t s =
  add t (String.length s);
  String.iter (fun c -> add t (Char.code c)) s

let add_pid t p = add t t.label.(p)

let pack t a b v =
  let span = Array.length t.label + 2 in
  (((v * span) + t.label.(a) + 2) * span) + t.label.(b) + 2

let old t i = t.inv.(i)

let add_list t write xs =
  add t (List.length xs);
  List.iter write xs

let add_pids t ps = add_list t (add_pid t) ps

(* Insertion sort: the runs sorted here are a handful of ints. *)
let sort_from t from =
  for i = from + 1 to t.len - 1 do
    let x = t.buf.(i) in
    let j = ref (i - 1) in
    while !j >= from && t.buf.(!j) > x do
      t.buf.(!j + 1) <- t.buf.(!j);
      decr j
    done;
    t.buf.(!j + 1) <- x
  done

let add_pids_sorted t ps =
  add_pids t ps;
  sort_from t (t.len - List.length ps)

(* Each nonzero entry packed into one int, sorted, then a -1 terminator. *)
let add_row t row =
  let base = Array.length t.label + 2 in
  add t (Array.length row);
  let from = t.len in
  for j = 0 to Array.length row - 1 do
    let v = Array.unsafe_get row j in
    if v <> 0 then add t ((v * base) + t.label.(j) + 2)
  done;
  sort_from t from;
  add t (-1)

(* Lexicographic order of two segments of [a] and [b], a proper prefix
   first. *)
let compare_segments (a : int array) ao al (b : int array) bo bl =
  let n = if al < bl then al else bl in
  let i = ref 0 in
  while !i < n && Array.unsafe_get a (ao + !i) = Array.unsafe_get b (bo + !i) do
    incr i
  done;
  if !i = n then Int.compare al bl
  else Int.compare (Array.unsafe_get a (ao + !i)) (Array.unsafe_get b (bo + !i))

(* An insertion sort of the records' (offset, length) pairs over a copy of
   them: a multiset here is a handful of short records, most told apart by
   their first int. The copies are plain loops: [Array.blit] into a buffer
   on the major heap pays a write barrier per int. *)
let sort_records t starts =
  match starts with
  | [] | [ _ ] -> ()
  | first :: _ ->
    let count = t.len - first and k = List.length starts in
    if Array.length t.scratch < count then t.scratch <- Array.make (max count 256) 0;
    if Array.length t.offs < k then begin
      t.offs <- Array.make (max k 64) 0;
      t.lens <- Array.make (max k 64) 0
    end;
    let scratch = t.scratch and offs = t.offs and lens = t.lens in
    for i = 0 to count - 1 do
      Array.unsafe_set scratch i (Array.unsafe_get t.buf (first + i))
    done;
    List.iteri (fun r s -> offs.(r) <- s - first) starts;
    for r = 0 to k - 1 do
      lens.(r) <- (if r + 1 < k then offs.(r + 1) else count) - offs.(r)
    done;
    let greater j o l =
      let a = scratch.(offs.(j)) and b = scratch.(o) in
      a > b || (a = b && compare_segments scratch offs.(j) lens.(j) scratch o l > 0)
    in
    for r = 1 to k - 1 do
      let o = offs.(r) and l = lens.(r) in
      let j = ref (r - 1) in
      while !j >= 0 && greater !j o l do
        offs.(!j + 1) <- offs.(!j);
        lens.(!j + 1) <- lens.(!j);
        decr j
      done;
      offs.(!j + 1) <- o;
      lens.(!j + 1) <- l
    done;
    let at = ref first in
    for r = 0 to k - 1 do
      for i = offs.(r) to offs.(r) + lens.(r) - 1 do
        Array.unsafe_set t.buf !at (Array.unsafe_get scratch i);
        incr at
      done
    done

let add_multiset t write xs =
  add t (List.length xs);
  sort_records t
    (List.map
       (fun x ->
         let start = t.len in
         write x;
         start)
       xs)

let add_table t tbl write =
  add_multiset t (fun (k, v) -> write k v) (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let compare a b = compare_segments a.buf 0 a.len b.buf 0 b.len

let hash_from t from =
  let h = ref (t.len - from) in
  for i = from to t.len - 1 do
    h := (!h * 0x100000001b3) lxor Array.unsafe_get t.buf i
  done;
  !h land max_int

let hash t = hash_from t 0

let truncate t len =
  if len < 0 || len > t.len then invalid_arg "State_key.truncate";
  t.len <- len

(* One pass into a byte buffer sized for the worst case (9 bytes per int),
   kept for the next call. *)
let to_string t =
  let need = 9 * t.len in
  if Bytes.length t.bytes < need then t.bytes <- Bytes.create (max need 1024);
  let b = t.bytes in
  let at = ref 0 in
  for i = 0 to t.len - 1 do
    let x = Array.unsafe_get t.buf i in
    let z = ref ((x lsl 1) lxor (x asr (Sys.int_size - 1))) in
    while !z land lnot 0x7f <> 0 do
      Bytes.unsafe_set b !at (Char.unsafe_chr (!z land 0x7f lor 0x80));
      incr at;
      z := !z lsr 7
    done;
    Bytes.unsafe_set b !at (Char.unsafe_chr !z);
    incr at
  done;
  Bytes.sub_string b 0 !at
