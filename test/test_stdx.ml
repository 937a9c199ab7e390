(* Unit and property tests for the support kit. *)

open Qs_stdx

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1L and b = Prng.create 2L in
  check_bool "different seeds differ" false (Prng.next_int64 a = Prng.next_int64 b)

let test_prng_int_bounds () =
  let g = Prng.of_int 7 in
  for _ = 1 to 1000 do
    let x = Prng.int g 10 in
    check_bool "in range" true (x >= 0 && x < 10)
  done

let test_prng_int_in () =
  let g = Prng.of_int 3 in
  for _ = 1 to 1000 do
    let x = Prng.int_in g 5 9 in
    check_bool "in [5,9]" true (x >= 5 && x <= 9)
  done

let test_prng_int_covers_all () =
  let g = Prng.of_int 11 in
  let seen = Array.make 6 false in
  for _ = 1 to 2000 do
    seen.(Prng.int g 6) <- true
  done;
  Array.iteri (fun i b -> check_bool (Printf.sprintf "value %d seen" i) true b) seen

let test_prng_copy_independent () =
  let a = Prng.of_int 5 in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.next_int64 a) (Prng.next_int64 b);
  ignore (Prng.next_int64 a);
  (* advancing a must not advance b *)
  let a2 = Prng.next_int64 a and b2 = Prng.next_int64 b in
  check_bool "streams diverge after unequal advances" false (a2 = b2)

let test_prng_split_decorrelated () =
  let a = Prng.of_int 9 in
  let b = Prng.split a in
  check_bool "split stream differs" false (Prng.next_int64 a = Prng.next_int64 b)

let test_prng_float_range () =
  let g = Prng.of_int 13 in
  for _ = 1 to 1000 do
    let x = Prng.float g 2.5 in
    check_bool "in [0, 2.5)" true (x >= 0.0 && x < 2.5)
  done

let test_prng_chance_extremes () =
  let g = Prng.of_int 17 in
  check_bool "p=0 never" false (Prng.chance g 0.0);
  check_bool "p=1 always" true (Prng.chance g 1.0)

let test_prng_chance_rate () =
  let g = Prng.of_int 23 in
  let hits = ref 0 in
  for _ = 1 to 10000 do
    if Prng.chance g 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. 10000.0 in
  check_bool "rate near 0.3" true (rate > 0.25 && rate < 0.35)

let test_prng_shuffle_permutation () =
  let g = Prng.of_int 29 in
  let a = Array.init 20 (fun i -> i) in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 (fun i -> i)) sorted

let test_prng_sample () =
  let g = Prng.of_int 31 in
  let s = Prng.sample g 3 [ 1; 2; 3; 4; 5 ] in
  check_int "sample size" 3 (List.length s);
  check_int "distinct" 3 (List.length (List.sort_uniq compare s));
  List.iter (fun x -> check_bool "member" true (List.mem x [ 1; 2; 3; 4; 5 ])) s;
  check_int "sample larger than list truncates" 2 (List.length (Prng.sample g 10 [ 1; 2 ]))

let test_prng_invalid_bound () =
  let g = Prng.of_int 1 in
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_basic_order () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.add h) [ 5; 3; 8; 1; 9; 2 ];
  let out = List.init 6 (fun _ -> Option.get (Heap.pop h)) in
  Alcotest.(check (list int)) "sorted output" [ 1; 2; 3; 5; 8; 9 ] out

let test_heap_fifo_ties () =
  (* Elements comparing equal must pop in insertion order. *)
  let h = Heap.create ~cmp:(fun (a, _) (b, _) -> compare a b) in
  Heap.add h (1, "first");
  Heap.add h (1, "second");
  Heap.add h (0, "zero");
  Heap.add h (1, "third");
  let labels = List.init 4 (fun _ -> snd (Option.get (Heap.pop h))) in
  Alcotest.(check (list string)) "fifo among ties" [ "zero"; "first"; "second"; "third" ] labels

let test_heap_empty () =
  let h = Heap.create ~cmp:compare in
  check_bool "empty" true (Heap.is_empty h);
  check_bool "pop none" true (Heap.pop h = None);
  check_bool "peek none" true (Heap.peek h = None)

let test_heap_peek_does_not_remove () =
  let h = Heap.create ~cmp:compare in
  Heap.add h 4;
  check_bool "peek" true (Heap.peek h = Some 4);
  check_int "size unchanged" 1 (Heap.size h)

let test_heap_interleaved () =
  let h = Heap.create ~cmp:compare in
  Heap.add h 10;
  Heap.add h 5;
  check_bool "pop 5" true (Heap.pop h = Some 5);
  Heap.add h 1;
  Heap.add h 7;
  check_bool "pop 1" true (Heap.pop h = Some 1);
  check_bool "pop 7" true (Heap.pop h = Some 7);
  check_bool "pop 10" true (Heap.pop h = Some 10);
  check_bool "empty at end" true (Heap.is_empty h)

let test_heap_clear () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.add h) [ 1; 2; 3 ];
  Heap.clear h;
  check_bool "cleared" true (Heap.is_empty h)

let test_heap_grows () =
  let h = Heap.create ~cmp:compare in
  for i = 100 downto 1 do
    Heap.add h i
  done;
  check_int "size 100" 100 (Heap.size h);
  for i = 1 to 100 do
    check_int "ordered pop" i (Option.get (Heap.pop h))
  done

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.add h) xs;
      let rec drain acc = match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
      drain [] = List.sort compare xs)

(* ------------------------------------------------------------------ *)
(* Bitset *)

let test_bitset_add_mem () =
  let b = Bitset.create 100 in
  Bitset.add b 0;
  Bitset.add b 63;
  Bitset.add b 64;
  Bitset.add b 99;
  List.iter (fun i -> check_bool (string_of_int i) true (Bitset.mem b i)) [ 0; 63; 64; 99 ];
  List.iter (fun i -> check_bool (string_of_int i) false (Bitset.mem b i)) [ 1; 62; 65; 98 ]

let test_bitset_remove () =
  let b = Bitset.of_list 10 [ 1; 2; 3 ] in
  Bitset.remove b 2;
  check_bool "removed" false (Bitset.mem b 2);
  check_int "cardinal" 2 (Bitset.cardinal b)

let test_bitset_cardinal () =
  let b = Bitset.of_list 200 [ 0; 50; 100; 150; 199 ] in
  check_int "cardinal" 5 (Bitset.cardinal b);
  Bitset.add b 50;
  check_int "idempotent add" 5 (Bitset.cardinal b)

let test_bitset_set_ops () =
  let a = Bitset.of_list 10 [ 1; 2; 3 ] and b = Bitset.of_list 10 [ 3; 4 ] in
  let u = Bitset.copy a in
  Bitset.union_into u b;
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ] (Bitset.elements u);
  let d = Bitset.copy a in
  Bitset.diff_into d b;
  Alcotest.(check (list int)) "diff" [ 1; 2 ] (Bitset.elements d);
  let i = Bitset.copy a in
  Bitset.inter_into i b;
  Alcotest.(check (list int)) "inter" [ 3 ] (Bitset.elements i)

let test_bitset_iter_order () =
  let b = Bitset.of_list 128 [ 100; 5; 64; 2 ] in
  Alcotest.(check (list int)) "increasing order" [ 2; 5; 64; 100 ] (Bitset.elements b)

let test_bitset_first () =
  let b = Bitset.create 8 in
  check_bool "empty has no first" true (Bitset.first b = None);
  Bitset.add b 6;
  Bitset.add b 3;
  check_bool "first is min" true (Bitset.first b = Some 3)

let test_bitset_equal_copy () =
  let a = Bitset.of_list 70 [ 0; 69 ] in
  let b = Bitset.copy a in
  check_bool "copies equal" true (Bitset.equal a b);
  Bitset.add b 1;
  check_bool "diverge after mutation" false (Bitset.equal a b);
  check_bool "original untouched" false (Bitset.mem a 1)

let test_bitset_out_of_range () =
  let b = Bitset.create 4 in
  Alcotest.check_raises "negative index" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.add b (-1));
  Alcotest.check_raises "too large" (Invalid_argument "Bitset: index out of range")
    (fun () -> ignore (Bitset.mem b 4))

let prop_bitset_matches_list_set =
  QCheck.Test.make ~name:"bitset agrees with list-set semantics" ~count:200
    QCheck.(list (int_bound 63))
    (fun xs ->
      let b = Bitset.of_list 64 xs in
      Bitset.elements b = List.sort_uniq compare xs)

(* The word-skipping paths all branch on the 63-bit word boundary: exercise
   capacities one below, at and one above it, including the empty and full
   sets, against list-set semantics. *)
let prop_bitset_word_boundaries =
  QCheck.Test.make ~name:"bitset word boundaries (63/64/65, empty, full)"
    ~count:200
    QCheck.(pair (int_range 0 2) (list (int_bound 64)))
    (fun (off, xs) ->
      let c = 63 + off in
      let xs = List.filter (fun i -> i < c) xs in
      let b = Bitset.of_list c xs in
      let sorted = List.sort_uniq compare xs in
      let empty = Bitset.create c in
      let full = Bitset.of_list c (List.init c Fun.id) in
      let inter = Bitset.copy b in
      Bitset.inter_into inter full;
      Bitset.elements b = sorted
      && Bitset.cardinal b = List.length sorted
      && List.for_all (fun i -> Bitset.mem b i = List.mem i sorted)
           (List.init c Fun.id)
      && Bitset.is_empty empty
      && Bitset.disjoint b empty
      && Bitset.cardinal full = c
      && Bitset.inter_cardinal b full = Bitset.cardinal b
      && Bitset.equal inter b
      &&
      (Bitset.clear full;
       Bitset.is_empty full))

(* The reconfiguration law: growing a set by one fresh slot at position [s]
   (a config join) and compacting that slot back out (the matching leave)
   is the identity — membership rides the remap in both directions. *)
let prop_bitset_remap_round_trip =
  QCheck.Test.make ~name:"bitset grow/compact remap round-trips" ~count:200
    QCheck.(triple (int_range 1 130) (list (int_bound 129)) small_nat)
    (fun (n, xs, s) ->
      let s = s mod (n + 1) in
      let xs = List.filter (fun i -> i < n) xs in
      let b = Bitset.of_list n xs in
      let grown =
        Bitset.remap b ~n:(n + 1) ~of_new:(fun i ->
            if i < s then i else if i = s then -1 else i - 1)
      in
      let back =
        Bitset.remap grown ~n ~of_new:(fun i -> if i < s then i else i + 1)
      in
      Bitset.capacity grown = n + 1
      && (not (Bitset.mem grown s))
      && Bitset.cardinal grown = Bitset.cardinal b
      && Bitset.equal back b)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_summary () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check_int "count" 5 s.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.Stats.max;
  Alcotest.(check (float 1e-9)) "median" 3.0 s.Stats.median;
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.5) s.Stats.stddev

let test_stats_single_point () =
  let s = Stats.summarize [ 7.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 7.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "stddev 0" 0.0 s.Stats.stddev

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p95" 95.0 (Stats.percentile 0.95 xs);
  Alcotest.(check (float 1e-9)) "p0 -> min" 1.0 (Stats.percentile 0.0 xs);
  Alcotest.(check (float 1e-9)) "p1 -> max" 100.0 (Stats.percentile 1.0 xs)

let test_stats_empty_raises () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty") (fun () ->
      ignore (Stats.summarize []))

let test_stats_ints () =
  let s = Stats.summarize_ints [ 2; 4; 6 ] in
  Alcotest.(check (float 1e-9)) "mean" 4.0 s.Stats.mean

(* ------------------------------------------------------------------ *)
(* Table *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec loop i = i + nl <= hl && (String.sub haystack i nl = needle || loop (i + 1)) in
  nl = 0 || loop 0

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  check_bool "title present" true (String.length s > 0 && String.sub s 0 3 = "== ");
  check_bool "contains alpha" true (contains ~needle:"alpha" s)

let test_table_bad_row () =
  let t = Table.create ~title:"t" ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: cell count mismatch") (fun () ->
      Table.add_row t [ "x"; "y" ])

let test_table_alignment () =
  let t = Table.create ~title:"t" ~columns:[ ("n", Table.Right) ] in
  Table.add_row t [ "1" ];
  Table.add_row t [ "100" ];
  let lines = String.split_on_char '\n' (Table.render t) in
  (* Right-aligned 1 must be padded to width 3. *)
  check_bool "padded" true (List.exists (fun l -> l = "|   1 |") lines)

(* ------------------------------------------------------------------ *)
(* Combin *)

let test_choose_values () =
  check_int "C(5,2)" 10 (Combin.choose 5 2);
  check_int "C(10,3)" 120 (Combin.choose 10 3);
  check_int "C(7,0)" 1 (Combin.choose 7 0);
  check_int "C(7,7)" 1 (Combin.choose 7 7);
  check_int "C(4,9)" 0 (Combin.choose 4 9);
  check_int "C(4,-1)" 0 (Combin.choose 4 (-1));
  check_int "C(52,5)" 2598960 (Combin.choose 52 5)

let test_subset_enumeration () =
  let all = Combin.subsets 4 2 in
  Alcotest.(check (list (list int))) "lexicographic"
    [ [ 0; 1 ]; [ 0; 2 ]; [ 0; 3 ]; [ 1; 2 ]; [ 1; 3 ]; [ 2; 3 ] ]
    all

let test_subset_count () =
  check_int "count matches choose" (Combin.choose 7 3) (List.length (Combin.subsets 7 3))

let test_rank_unrank_roundtrip () =
  let n = 8 and k = 3 in
  List.iteri
    (fun r s ->
      check_int "rank" r (Combin.rank n s);
      Alcotest.(check (list int)) "unrank" s (Combin.unrank n k r))
    (Combin.subsets n k)

let test_next_subset_end () =
  check_bool "last has no successor" true (Combin.next_subset 4 [ 2; 3 ] = None)

let test_unrank_out_of_range () =
  Alcotest.check_raises "rank too big" (Invalid_argument "Combin.unrank: rank out of range")
    (fun () -> ignore (Combin.unrank 4 2 6))

let prop_rank_unrank =
  QCheck.Test.make ~name:"unrank inverts rank" ~count:200
    QCheck.(pair (int_range 1 10) (int_range 0 1000))
    (fun (n, r) ->
      let k = 1 + (r mod n) in
      let total = Combin.choose n k in
      let r = r mod total in
      Combin.rank n (Combin.unrank n k r) = r)

(* ---------------------------------------------------------------- state keys *)

module Key = Qs_stdx.State_key

let key_of write =
  let k = Key.create () in
  Key.reset k (Array.init 4 Fun.id);
  write k;
  k

(* A multiset's key ignores order but not multiplicity; records of
   different lengths that share a prefix stay apart. *)
let test_key_multiset () =
  let ms xs = key_of (fun k -> Key.add_multiset k (Key.add_list k (Key.add k)) xs) in
  let same a b = Key.compare (ms a) (ms b) = 0 in
  check_bool "order ignored" true (same [ [ 1; 2 ]; [ 3 ]; [ 1 ] ] [ [ 1 ]; [ 3 ]; [ 1; 2 ] ]);
  check_bool "multiplicity kept" false (same [ [ 3 ]; [ 3 ] ] [ [ 3 ] ]);
  check_bool "prefix records apart" false (same [ [ 1; 2 ]; [ 1 ] ] [ [ 1 ]; [ 1; 2; 1 ] ])

let test_key_table () =
  let table bindings =
    let t = Hashtbl.create 4 in
    List.iter (fun (k, v) -> Hashtbl.replace t k v) bindings;
    key_of (fun key ->
        Key.add_table key t (fun k v ->
            Key.add key k;
            Key.add_string key v))
  in
  check_int "insertion order ignored" 0
    (Key.compare (table [ (1, "a"); (2, "b"); (7, "") ]) (table [ (7, ""); (2, "b"); (1, "a") ]));
  check_bool "values count" true
    (Key.compare (table [ (1, "a"); (2, "b") ]) (table [ (1, "a"); (2, "c") ]) <> 0)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_heap_sorts;
      prop_bitset_matches_list_set;
      prop_bitset_word_boundaries;
      prop_bitset_remap_round_trip;
      prop_rank_unrank;
    ]

let () =
  Alcotest.run "stdx"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic stream" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_prng_int_in;
          Alcotest.test_case "int covers range" `Quick test_prng_int_covers_all;
          Alcotest.test_case "copy independence" `Quick test_prng_copy_independent;
          Alcotest.test_case "split decorrelated" `Quick test_prng_split_decorrelated;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "chance extremes" `Quick test_prng_chance_extremes;
          Alcotest.test_case "chance rate" `Quick test_prng_chance_rate;
          Alcotest.test_case "shuffle is permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "sample distinct" `Quick test_prng_sample;
          Alcotest.test_case "invalid bound" `Quick test_prng_invalid_bound;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic order" `Quick test_heap_basic_order;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "peek non-destructive" `Quick test_heap_peek_does_not_remove;
          Alcotest.test_case "interleaved ops" `Quick test_heap_interleaved;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "growth" `Quick test_heap_grows;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "add/mem across words" `Quick test_bitset_add_mem;
          Alcotest.test_case "remove" `Quick test_bitset_remove;
          Alcotest.test_case "cardinal" `Quick test_bitset_cardinal;
          Alcotest.test_case "set operations" `Quick test_bitset_set_ops;
          Alcotest.test_case "iteration order" `Quick test_bitset_iter_order;
          Alcotest.test_case "first" `Quick test_bitset_first;
          Alcotest.test_case "equal and copy" `Quick test_bitset_equal_copy;
          Alcotest.test_case "bounds checked" `Quick test_bitset_out_of_range;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "single point" `Quick test_stats_single_point;
          Alcotest.test_case "percentiles" `Quick test_stats_percentile;
          Alcotest.test_case "empty raises" `Quick test_stats_empty_raises;
          Alcotest.test_case "int summarize" `Quick test_stats_ints;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "bad row arity" `Quick test_table_bad_row;
          Alcotest.test_case "alignment" `Quick test_table_alignment;
        ] );
      ( "combin",
        [
          Alcotest.test_case "choose values" `Quick test_choose_values;
          Alcotest.test_case "subset enumeration" `Quick test_subset_enumeration;
          Alcotest.test_case "subset count" `Quick test_subset_count;
          Alcotest.test_case "rank/unrank roundtrip" `Quick test_rank_unrank_roundtrip;
          Alcotest.test_case "last subset" `Quick test_next_subset_end;
          Alcotest.test_case "unrank bounds" `Quick test_unrank_out_of_range;
        ] );
      ( "state-key",
        [
          Alcotest.test_case "multiset" `Quick test_key_multiset;
          Alcotest.test_case "table" `Quick test_key_table;
        ] );
      ("properties", qsuite);
    ]
