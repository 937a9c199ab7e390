module Table = Qs_stdx.Table
module Prng = Qs_stdx.Prng
module Theorem4 = Qs_adversary.Theorem4
module Spec = Qs_core.Spec

let e2_upper_bound ?(fs = [ 1; 2; 3; 4; 5; 6 ]) () =
  let t =
    Table.create ~title:"E2 (Theorem 3): max quorums issued per epoch under attack"
      ~columns:
        [
          ("f", Table.Right);
          ("n", Table.Right);
          ("best adversary", Table.Right);
          ("best random (seeds)", Table.Right);
          ("proven bound f(f+1)", Table.Right);
          ("conjectured C(f+2,2)", Table.Right);
        ]
  in
  let verdicts = ref [] in
  List.iter
    (fun f ->
      let n = (2 * f) + 2 in
      let setup = Theorem4.default_setup ~n ~f in
      (* Quorums = injections + 1 (the initial default), matching the
         theorem's counting. Exhaustive search is feasible up to f = 4; for
         larger f the greedy strategy provably cannot exceed the bound and
         empirically meets it. *)
      let game = if f <= 4 then Theorem4.exhaustive setup else Theorem4.greedy setup in
      let exhaustive_quorums = 1 + List.length game.Theorem4.injections in
      let best_random =
        let best = ref 0 in
        for seed = 1 to 20 do
          let g = Theorem4.random (Prng.of_int seed) setup in
          best := max !best (1 + List.length g.Theorem4.injections)
        done;
        !best
      in
      let proven = f * (f + 1) in
      let conjectured = Theorem4.target ~f in
      Table.add_row t
        [
          string_of_int f;
          string_of_int n;
          string_of_int exhaustive_quorums;
          string_of_int best_random;
          string_of_int proven;
          string_of_int conjectured;
        ];
      verdicts :=
        Verdict.make
          (Printf.sprintf "f=%d: issued quorums within f(f+1)" f)
          (Spec.upper_bound_per_epoch ~f ~issued:(exhaustive_quorums - 1))
        :: Verdict.make
             (Printf.sprintf "f=%d: measured max equals C(f+2,2)" f)
             (exhaustive_quorums = conjectured)
        :: !verdicts)
    fs;
  (t, List.rev !verdicts)

let e3_lower_bound ?(fs = [ 1; 2; 3; 4; 5; 6 ]) () =
  let t =
    Table.create ~title:"E3 (Theorem 4, Fig. 5): lower-bound adversary on the live cluster"
      ~columns:
        [
          ("f", Table.Right);
          ("n", Table.Right);
          ("suspicions injected", Table.Right);
          ("quorums proposed (live)", Table.Right);
          ("C(f+2,2) target", Table.Right);
          ("achieved", Table.Left);
        ]
  in
  let verdicts = ref [] in
  List.iter
    (fun f ->
      let n = (2 * f) + 2 in
      let setup = Theorem4.default_setup ~n ~f in
      let game = if f <= 4 then Theorem4.exhaustive setup else Theorem4.greedy setup in
      let live_issued = Theorem4.replay setup game in
      let proposed = live_issued + 1 in
      let target = Theorem4.target ~f in
      let ok = proposed = target in
      Table.add_row t
        [
          string_of_int f;
          string_of_int n;
          string_of_int (List.length game.Theorem4.injections);
          string_of_int proposed;
          string_of_int target;
          (if ok then "yes" else "NO");
        ];
      verdicts :=
        Verdict.make (Printf.sprintf "f=%d: live cluster forced to C(f+2,2) quorums" f) ok
        :: !verdicts)
    fs;
  (t, List.rev !verdicts)
