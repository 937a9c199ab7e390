(* Domain-sharded exploration tests: byte-identical fuzzer reports across
   --jobs for every protocol instance, cross-jobs agreement of the sharded
   IDDFS with the sequential explorer on the partition-independent
   quantities, and the per-shard stat plumbing. On OCaml 4.14 the
   Domainpool shim runs every shard sequentially, so these tests also pin
   the fallback path. *)

module Engine = Qs_mc.Engine
module Shard = Qs_mc.Shard
module Schedule = Qs_mc.Schedule
module MC = Qs_harness.Modelcheck
module Json = Qs_obs.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let render r = Json.render (Engine.report_to_json r)

let quorum_n3_spec =
  { (MC.default_spec MC.Quorum) with MC.n = 3; injections = [ (0, [ 2 ]) ] }

let amnesia_gossip_spec =
  { (MC.default_spec MC.Quorum) with MC.n = 3; injections = [ (0, [ 2 ]) ]; faults = [ MC.Amnesia 1 ] }

(* ------------------------------------------------------------------ *)
(* Random mode: byte-identical reports across jobs *)

(* Satellite: the sharded fuzzer is a pure function of (seed, iters) — the
   report JSON must not change with the worker count, for every protocol
   instance the checker drives. *)
let test_random_jobs_byte_identical () =
  let instances =
    [
      ("quorum", MC.default_spec MC.Quorum, 20);
      ("follower", MC.default_spec MC.Follower, 20);
      ("xpaxos", MC.default_spec (MC.Stack "xpaxos"), 8);
      ("xpaxos-enum", MC.default_spec (MC.Stack "xpaxos-enum"), 8);
      ("pbft-full", MC.default_spec (MC.Stack "pbft-full"), 8);
      ("pbft-selected", MC.default_spec (MC.Stack "pbft-selected"), 8);
      ("minbft-full", MC.default_spec (MC.Stack "minbft-full"), 8);
      ("minbft-selected", MC.default_spec (MC.Stack "minbft-selected"), 8);
      ("chain", MC.default_spec (MC.Stack "chain"), 8);
      ("star", MC.default_spec (MC.Stack "star"), 8);
      ("quorum-amnesia", amnesia_gossip_spec, 20);
    ]
  in
  List.iter
    (fun (name, spec, iters) ->
      let run jobs =
        Shard.random ~jobs ~seed:71 ~iters (fun () -> MC.make spec)
      in
      let a = run 1 and b = run 4 in
      check_string (name ^ ": report identical across jobs") (render a.Shard.report)
        (render b.Shard.report);
      check_string (name ^ ": same visited set") a.Shard.states_digest
        b.Shard.states_digest)
    instances

let test_random_walks_reach_quiescence () =
  let r =
    Shard.random ~jobs:2 ~seed:4242 ~iters:50 (fun () ->
        MC.make amnesia_gossip_spec)
  in
  check_int "every walk reaches quiescence" 50 r.Shard.report.Engine.quiescent;
  check_int "no violations" 0 (List.length r.Shard.report.Engine.violations)

(* The seeded bug must be found at the same walk with the same shrunk
   schedule regardless of jobs: the merge keeps the lowest violating walk
   index, not whichever worker won the race. *)
let test_random_seeded_bug_jobs_identical () =
  let spec = { (MC.default_spec MC.Quorum) with MC.seeded_bug = true } in
  let run jobs = Shard.random ~jobs ~seed:5 ~iters:20 (fun () -> MC.make spec) in
  let a = run 1 and b = run 4 in
  Qs_core.Quorum_select.test_buggy_quorum_size := false;
  check_bool "bug found" true
    (List.exists
       (fun v -> v.Engine.check = "quorum-size")
       a.Shard.report.Engine.violations);
  check_string "identical counterexample report" (render a.Shard.report)
    (render b.Shard.report)

(* Per-shard stats must account for exactly the executed walks. *)
let test_random_shard_stats_account () =
  let r =
    Shard.random ~jobs:3 ~seed:7 ~iters:21 (fun () ->
        MC.make (MC.default_spec MC.Quorum))
  in
  let tasks = List.fold_left (fun a s -> a + s.Shard.tasks) 0 r.Shard.shards in
  check_int "three shard stats" 3 (List.length r.Shard.shards);
  check_int "all 21 walks executed (no violation, no skips)" 21 tasks;
  List.iter
    (fun s -> check_bool "elapsed measured" true (s.Shard.elapsed_s >= 0.0))
    r.Shard.shards

(* ------------------------------------------------------------------ *)
(* Exhaustive mode: agreement across jobs and with the sequential engine *)

let toy () =
  (* Same 3-commuting-deliveries toy as test_mc: visited=8, quiescent=1. *)
  let delivered = ref [] in
  let enabled () =
    List.filter_map
      (fun i ->
        if List.mem i !delivered then None
        else
          Some
            {
              Engine.choice = Schedule.Deliver i;
              canon = "m" ^ string_of_int i;
              receiver = Some i;
            })
      [ 0; 1; 2 ]
  in
  {
    Engine.reset = (fun () -> delivered := []);
    enabled;
    apply =
      (fun c ->
        match c with
        | Schedule.Deliver i when not (List.mem i !delivered) ->
          delivered := i :: !delivered;
          true
        | _ -> false);
    fingerprint =
      (fun () ->
        String.concat "," (List.map string_of_int (List.sort compare !delivered)));
    violations = (fun () -> []);
    quiescent_violations = (fun () -> []);
    snapshot = None;
    symmetry = None;
  }

let test_explore_toy_matches_engine () =
  let seq = Engine.explore ~depth:5 (toy ()) in
  List.iter
    (fun jobs ->
      let r = Shard.explore ~jobs ~depth:5 toy in
      check_int "visited" seq.Engine.visited r.Shard.report.Engine.visited;
      check_int "quiescent" seq.Engine.quiescent r.Shard.report.Engine.quiescent;
      check_bool "complete" seq.Engine.complete r.Shard.report.Engine.complete)
    [ 1; 2; 3 ]

(* The partition-independent quantities — visited set, quiescent set,
   completeness, violations — agree between any two worker counts, and the
   visited count matches the sequential explorer's pinned value. *)
let test_explore_quorum_jobs_agree () =
  let mk () = MC.make quorum_n3_spec in
  let a = Shard.explore ~jobs:1 ~depth:12 mk in
  let b = Shard.explore ~jobs:2 ~depth:12 mk in
  let c = Shard.explore ~jobs:3 ~depth:12 mk in
  check_int "visited matches sequential pin" 1135 a.Shard.report.Engine.visited;
  check_int "jobs 2 visited" 1135 b.Shard.report.Engine.visited;
  check_int "jobs 3 visited" 1135 c.Shard.report.Engine.visited;
  check_string "jobs 1/2 same state set" a.Shard.states_digest b.Shard.states_digest;
  check_string "jobs 2/3 same state set" b.Shard.states_digest c.Shard.states_digest;
  check_int "quiescent agree" a.Shard.report.Engine.quiescent
    b.Shard.report.Engine.quiescent;
  check_bool "complete" true a.Shard.report.Engine.complete;
  check_bool "complete at 2" true b.Shard.report.Engine.complete;
  check_bool "complete at 3" true c.Shard.report.Engine.complete;
  check_int "no violations" 0 (List.length b.Shard.report.Engine.violations)

let test_explore_amnesia_jobs_agree () =
  let mk () = MC.make amnesia_gossip_spec in
  let a = Shard.explore ~jobs:1 ~depth:6 mk in
  let b = Shard.explore ~jobs:2 ~depth:6 mk in
  check_int "visited matches sequential pin" 2659 a.Shard.report.Engine.visited;
  check_string "same state set" a.Shard.states_digest b.Shard.states_digest;
  check_bool "bounded" false b.Shard.report.Engine.complete

(* The follower instance keys every state exactly (no timers, no
   simulator queue), so its visited set does not depend on the root
   partition either. *)
let test_explore_follower_jobs_agree () =
  let mk () = MC.make (MC.default_spec MC.Follower) in
  let seq = Engine.explore ~depth:4 (mk ()) in
  let a = Shard.explore ~jobs:1 ~depth:4 mk in
  let b = Shard.explore ~jobs:2 ~depth:4 mk in
  check_int "sequential visited" 767 seq.Engine.visited;
  check_int "jobs 1 visited" 767 a.Shard.report.Engine.visited;
  check_int "jobs 2 visited" 767 b.Shard.report.Engine.visited;
  check_string "jobs 1/2 same state set" a.Shard.states_digest b.Shard.states_digest;
  check_int "no violations" 0 (List.length b.Shard.report.Engine.violations)

(* Violations found by the sharded explorer shrink to the same minimal
   schedule as the sequential one. *)
let test_explore_seeded_bug_jobs_agree () =
  let spec = { (MC.default_spec MC.Quorum) with MC.seeded_bug = true } in
  let mk () = MC.make spec in
  let seq = Engine.explore ~depth:3 (mk ()) in
  let par = Shard.explore ~jobs:2 ~depth:3 mk in
  Qs_core.Quorum_select.test_buggy_quorum_size := false;
  let find r =
    match
      List.find_opt (fun v -> v.Engine.check = "quorum-size") r.Engine.violations
    with
    | Some v -> v
    | None -> Alcotest.fail "seeded quorum-size bug not found"
  in
  let vs = find seq and vp = find par.Shard.report in
  check_string "same shrunk schedule" (Schedule.to_string vs.Engine.schedule)
    (Schedule.to_string vp.Engine.schedule)

(* ------------------------------------------------------------------ *)
(* Symmetry reduction *)

module SM = Qs_core.Suspicion_matrix

let perms_of n =
  let rec go acc rest =
    match rest with
    | [] -> [ List.rev acc ]
    | _ ->
      List.concat_map
        (fun x -> go (x :: acc) (List.filter (fun y -> y <> x) rest))
        rest
  in
  go [] (List.init n Fun.id)

let render_matrix m = Format.asprintf "%a" SM.pp m

(* Minimum over every pid bijection of the permuted render — the matrix-level
   analogue of the canonical state fingerprint. *)
let canon_matrix m =
  let n = SM.n m in
  List.fold_left
    (fun best p ->
      let arr = Array.of_list p in
      let r = render_matrix (SM.remap m ~n ~of_new:(fun i -> arr.(i))) in
      match best with Some b when String.compare b r <= 0 -> best | _ -> Some r)
    None (perms_of n)
  |> Option.get

(* Satellite: the canonical render is constant on permutation orbits, and the
   identity remap reproduces the original render byte-for-byte (remap/pp
   round-trips are canonical). *)
let prop_matrix_canon_perm_invariant =
  QCheck.Test.make ~name:"canonical matrix render is permutation-invariant"
    ~count:60
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 10)
           (triple (int_bound 3) (int_bound 3) (int_range 1 3)))
        (int_bound 23))
    (fun (cells, pidx) ->
      let m = SM.create 4 in
      List.iter
        (fun (i, j, e) ->
          if i <> j then SM.record m ~suspector:i ~suspect:j ~epoch:e)
        cells;
      let p = Array.of_list (List.nth (perms_of 4) pidx) in
      let pm = SM.remap m ~n:4 ~of_new:(fun i -> p.(i)) in
      String.equal (canon_matrix pm) (canon_matrix m)
      && String.equal (render_matrix (SM.remap m ~n:4 ~of_new:Fun.id)) (render_matrix m))

(* The key of a selector state under the identity, written into a fresh
   buffer or into one reused after another permutation, is the same; a
   permutation fixing both ends of the only suspicion edge leaves it
   unchanged, and one moving an end does not. *)
let test_fingerprint_perm_identity () =
  let module QS = Qs_core.Quorum_select in
  let module K = Qs_stdx.State_key in
  let cfg = { QS.n = 4; f = 1 } in
  let auth = Qs_crypto.Auth.create 4 in
  let self = ref None in
  let node =
    QS.create cfg ~me:0 ~auth
      ~send:(fun m -> QS.handle_update (Option.get !self) m)
      ~on_quorum:(fun _ -> ()) ()
  in
  self := Some node;
  QS.handle_suspected node [ 3 ];
  let key perm =
    let k = K.create () in
    K.reset k perm;
    QS.write_key node k;
    K.to_string k
  in
  let id = [| 0; 1; 2; 3 |] in
  let reused = K.create () in
  K.reset reused [| 3; 2; 1; 0 |];
  QS.write_key node reused;
  K.reset reused id;
  QS.write_key node reused;
  check_string "a reused buffer rewrites the identity key" (key id) (K.to_string reused);
  check_string "a permutation fixing the edge keeps the key" (key id) (key [| 0; 2; 1; 3 |]);
  check_bool "a permutation moving an edge end changes it" true
    (not (String.equal (key id) (key [| 3; 1; 2; 0 |])))

(* The distinguished pids of the default quorum instance are {0, 3}
   (injection source and target); 1 and 2 are interchangeable. Delivering
   the injected update to 1 vs to 2 yields sibling states with different
   plain fingerprints but the same symmetry-canonical one — the orbit the
   sym explorer collapses. *)
let test_sym_sibling_states_equal_canon () =
  let system = MC.make (MC.default_spec MC.Quorum) in
  system.Engine.reset ();
  let root = system.Engine.enabled () in
  let to_p p =
    match List.find_opt (fun ci -> ci.Engine.receiver = Some p) root with
    | Some ci -> ci
    | None -> Alcotest.fail (Printf.sprintf "no root delivery to %d" p)
  in
  let state_after ci =
    system.Engine.reset ();
    ignore (system.Engine.apply ci.Engine.choice);
    (system.Engine.fingerprint (), (Option.get system.Engine.symmetry) ())
  in
  let fp1, c1 = state_after (to_p 1) in
  let fp2, c2 = state_after (to_p 2) in
  check_bool "plain fingerprints differ" true (not (String.equal fp1 fp2));
  check_string "canonical fingerprints agree" c1 c2

(* The shipped canonical form keys only the labellings that order the
   free pids by signature; the full-group form keys every permutation.
   Over every state an exhaustive plain walk reaches (orbit-mates visited
   separately), the two must induce the same partition: the map between
   their canon strings is a bijection. *)
let orbit_partition spec ~depth =
  let system, search = MC.make_with_canon_search spec in
  let canon = Option.value system.Engine.symmetry ~default:system.Engine.fingerprint in
  let to_full = Hashtbl.create 256 and to_canon = Hashtbl.create 256 in
  let splits = ref 0 and merges = ref 0 in
  let agree conflicts table k v =
    match Hashtbl.find_opt table k with
    | None -> Hashtbl.replace table k v
    | Some v' -> if not (String.equal v v') then incr conflicts
  in
  let recording =
    {
      system with
      Engine.violations =
        (fun () ->
          let c = canon () and g = search.MC.full_canon () in
          agree merges to_full c g;
          agree splits to_canon g c;
          system.Engine.violations ());
    }
  in
  let r = Engine.explore ~depth recording in
  check_int "no violations" 0 (List.length r.Engine.violations);
  check_int "no full-group orbit split by the canon" 0 !splits;
  check_int "no canon merging two full-group orbits" 0 !merges;
  (system.Engine.symmetry <> None, r.Engine.visited, Hashtbl.length to_full)

let test_sym_partition_matches_full_group () =
  let q = MC.default_spec MC.Quorum in
  List.iter
    (fun (name, spec, depth) ->
      let symmetric, visited, orbits = orbit_partition spec ~depth in
      if symmetric then check_bool (name ^ ": orbits collapse states") true (orbits < visited))
    [
      ("n=4", q, 4);
      ("n=5", { q with MC.n = 5 }, 4);
      ( "n=5 f=2 0:4 amnesia:1",
        { q with MC.n = 5; f = 2; injections = [ (0, [ 4 ]) ]; faults = [ MC.Amnesia 1 ] },
        4 );
      ("n=4 equivocate:0", { q with MC.injections = []; faults = [ MC.Equivocate 0 ] }, 5);
      ( "n=5 equivocate:0",
        { q with MC.n = 5; injections = []; faults = [ MC.Equivocate 0 ] },
        4 );
    ]

(* ------------------------------------------------------------------ *)
(* Keys against the string renders they replaced *)

(* The reference: a verbatim copy of the rendered fingerprints the quorum
   instance keyed states by before it wrote structural keys, kept here
   only to check that the keys draw the same distinctions. [perm] maps old
   pid to new pid. *)
module Old_render = struct
  module QS = Qs_core.Quorum_select
  module SM = Qs_core.Suspicion_matrix
  module Rejoin = Qs_recovery.Rejoin
  module Codec = Qs_recovery.Codec

  let inverse n perm =
    let inv = Array.make n 0 in
    for p = 0 to n - 1 do
      inv.(perm p) <- p
    done;
    inv

  let selector ~n ~f ?perm node =
    let matrix, excluded =
      match perm with
      | None -> (QS.matrix node, QS.excluded node)
      | Some perm ->
        let inv = inverse n perm in
        (SM.remap (QS.matrix node) ~n ~of_new:(fun i -> inv.(i)), List.map perm (QS.excluded node))
    in
    let pids l = String.concat "," (List.map string_of_int l) in
    let suspecting =
      match perm with
      | None -> QS.suspecting node
      | Some perm -> List.sort compare (List.map perm (QS.suspecting node))
    in
    let policy_tag =
      if Qs_core.Selection_policy.is_default (QS.policy node) then ""
      else "|" ^ Qs_core.Selection_policy.to_string (QS.policy node)
    in
    Format.asprintf "%d,%d,%d|%d|%a|%s|%d|%d|%b|%s%s" n f (QS.cepoch node) (QS.epoch node)
      SM.pp matrix
      (pids (QS.last_quorum node) ^ "|" ^ pids suspecting)
      (QS.issued_in_epoch node) (QS.max_issued_per_epoch node) (QS.dormant node)
      (pids excluded) policy_tag

  let encode_payload (p : Rejoin.payload) =
    Printf.sprintf "%d|%d:%s|%d:%s" p.epoch (String.length p.matrix) p.matrix
      (String.length p.extra) p.extra

  let rejoin rj ~perm ~matrix =
    let permuted (p : Rejoin.payload) = { p with matrix = matrix p.matrix } in
    Printf.sprintf "%d|%b|%s|%d|%d|%d|%d|%s" (Rejoin.rid rj) (Rejoin.rejoining rj)
      (String.concat ","
         (List.map string_of_int (List.sort compare (List.map perm (Rejoin.responded rj)))))
      (Rejoin.retries rj) (Rejoin.completed_rounds rj) (Rejoin.bad_payloads rj)
      (Rejoin.gave_up rj)
      (String.concat ";"
         (List.map (fun p -> encode_payload (permuted p)) (List.rev (Rejoin.buffered rj))))

  let map_rejoin_matrix matrix = function
    | Rejoin.State_resp { rid; payload } ->
      Rejoin.State_resp { rid; payload = { payload with matrix = matrix payload.matrix } }
    | Rejoin.State_push { payload } ->
      Rejoin.State_push { payload = { payload with matrix = matrix payload.matrix } }
    | (Rejoin.State_req _ | Rejoin.State_delta _ | Rejoin.Delta_ack _) as rm -> rm

  let encode = function
    | MC.Q_update (m : Qs_core.Msg.t) -> "u" ^ Qs_core.Msg.encode m.update
    | MC.Q_rejoin m -> "r" ^ Rejoin.encode_msg m

  let digest s = Qs_crypto.Sha256.digest_hex s

  let fired_part (search : MC.canon_search) =
    String.concat "" (List.map (fun b -> if b then "1" else "0") (search.MC.fired ()))

  let plain (spec : MC.spec) (search : MC.canon_search) =
    let buf = Buffer.create 256 in
    Array.iter
      (fun node ->
        Buffer.add_string buf (selector ~n:spec.MC.n ~f:spec.MC.f node);
        Buffer.add_char buf '\n')
      (search.MC.selectors ());
    Array.iter
      (fun rj ->
        Buffer.add_string buf (rejoin rj ~perm:Fun.id ~matrix:Fun.id);
        Buffer.add_char buf '\n')
      (search.MC.rejoins ());
    Buffer.add_string buf ("F" ^ fired_part search);
    let parked =
      search.MC.in_flight ()
      |> List.map (fun (src, dst, payload) ->
             Printf.sprintf "%d>%d#%s" src dst (digest (encode payload)))
      |> List.sort compare |> String.concat ","
    in
    Buffer.add_string buf ("[" ^ parked ^ "]");
    Buffer.contents buf

  let render_perm (spec : MC.spec) (search : MC.canon_search) perm =
    let n = spec.MC.n in
    let inv = Array.make n 0 in
    Array.iteri (fun old img -> inv.(img) <- old) perm;
    let pmatrix enc =
      Codec.encode_matrix (SM.remap (Codec.decode_matrix enc) ~n ~of_new:(fun i -> inv.(i)))
    in
    let pencode = function
      | MC.Q_update (m : Qs_core.Msg.t) ->
        "u"
        ^ Qs_core.Msg.encode
            {
              Qs_core.Msg.owner = perm.(m.update.owner);
              row = Array.init n (fun j -> m.update.row.(inv.(j)));
            }
      | MC.Q_rejoin rm -> "r" ^ Rejoin.encode_msg (map_rejoin_matrix pmatrix rm)
    in
    let buf = Buffer.create 256 in
    for i = 0 to n - 1 do
      Buffer.add_string buf
        (selector ~n ~f:spec.MC.f ~perm:(fun p -> perm.(p)) (search.MC.selectors ()).(inv.(i)));
      Buffer.add_char buf '\n'
    done;
    for i = 0 to n - 1 do
      Buffer.add_string buf
        (rejoin (search.MC.rejoins ()).(inv.(i)) ~perm:(fun p -> perm.(p)) ~matrix:pmatrix);
      Buffer.add_char buf '\n'
    done;
    Buffer.add_string buf ("F" ^ fired_part search);
    let pend =
      search.MC.in_flight ()
      |> List.map (fun (src, dst, payload) ->
             Printf.sprintf "%d>%d#%s" perm.(src) perm.(dst) (digest (pencode payload)))
      |> List.sort compare |> String.concat ","
    in
    Buffer.add_string buf ("[" ^ pend ^ "]");
    Buffer.contents buf

  let tie_groups (search : MC.canon_search) =
    let free = search.MC.free in
    let cls self q = if q = self then -1 else if List.mem q free then -2 else q in
    let sorted l = String.concat "," (List.sort compare l) in
    let pids_sig self l = sorted (List.map (fun q -> string_of_int (cls self q)) l) in
    let matrix_sig self m =
      let cells = ref [] in
      SM.iter_nonzero m (fun ~suspector ~suspect ~epoch ->
          cells :=
            Printf.sprintf "%d>%d=%d" (cls self suspector) (cls self suspect) epoch :: !cells);
      sorted !cells
    in
    let encoded_matrix_sig self enc = matrix_sig self (Codec.decode_matrix enc) in
    let payload_sig self = function
      | MC.Q_update (m : Qs_core.Msg.t) ->
        let cells = ref [] in
        Array.iteri
          (fun j v -> if v <> 0 then cells := Printf.sprintf "%d=%d" (cls self j) v :: !cells)
          m.update.row;
        Printf.sprintf "u%d:%s" (cls self m.update.owner) (sorted !cells)
      | MC.Q_rejoin rm -> "r" ^ Rejoin.encode_msg (map_rejoin_matrix (encoded_matrix_sig self) rm)
    in
    let n = Array.length (search.MC.selectors ()) in
    let msgs = Array.make n [] in
    List.iter
      (fun (src, dst, payload) ->
        let add self dir peer =
          msgs.(self) <-
            Printf.sprintf "%s%d#%s" dir (cls self peer) (payload_sig self payload) :: msgs.(self)
        in
        if List.mem src free then add src "o" dst;
        if List.mem dst free then add dst "i" src)
      (search.MC.in_flight ());
    let signature p =
      let node = (search.MC.selectors ()).(p) in
      Printf.sprintf "%d|%d|%s|%s|%s|%d|%b|%s\n%s\n%s" (QS.cepoch node) (QS.epoch node)
        (matrix_sig p (QS.matrix node))
        (String.concat "," (List.map string_of_int (QS.last_quorum node)))
        (pids_sig p (QS.suspecting node))
        (QS.max_issued_per_epoch node) (QS.dormant node)
        (pids_sig p (QS.excluded node))
        (rejoin (search.MC.rejoins ()).(p) ~perm:(cls p) ~matrix:(encoded_matrix_sig p))
        (sorted msgs.(p))
    in
    List.map (fun p -> (signature p, p)) free
    |> List.sort compare
    |> List.fold_left
         (fun acc (s, p) ->
           match acc with
           | (s', g) :: rest when String.equal s s' -> (s, p :: g) :: rest
           | _ -> (s, [ p ]) :: acc)
         []
    |> List.rev_map snd

  let rec permutations = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x -> List.map (fun r -> x :: r) (permutations (List.filter (( <> ) x) l)))
        l

  let labellings n free groups =
    let rec go slots = function
      | [] -> [ [] ]
      | g :: rest ->
        let k = List.length g in
        let mine = List.filteri (fun i _ -> i < k) slots in
        let tails = go (List.filteri (fun i _ -> i >= k) slots) rest in
        List.concat_map
          (fun order -> List.map (fun t -> List.combine order mine @ t) tails)
          (permutations g)
    in
    List.map
      (fun pairs ->
        let a = Array.init n Fun.id in
        List.iter (fun (old, img) -> a.(old) <- img) pairs;
        a)
      (go free groups)

  (* The least render over the signature-restricted labellings; the plain
     render where fewer than two pids are free (no symmetry). *)
  let canonical spec (search : MC.canon_search) =
    if List.compare_length_with search.MC.free 2 < 0 then plain spec search
    else
      List.fold_left
        (fun best perm ->
          let r = render_perm spec search perm in
          match best with Some b when b <= r -> best | _ -> Some r)
        None
        (labellings spec.MC.n search.MC.free (tie_groups search))
      |> Option.get
end

(* Over every state an exhaustive plain walk reaches, the new keys and the
   old renders induce the same partition, canonical and plain alike: the
   maps between them are bijections. *)
let keys_match_renders spec ~depth =
  let system, search = MC.make_with_canon_search spec in
  let canon = Option.value system.Engine.symmetry ~default:system.Engine.fingerprint in
  let conflicts = ref 0 and states = ref 0 in
  let bijection () = (Hashtbl.create 256, Hashtbl.create 256) in
  let canon_maps = bijection () and plain_maps = bijection () in
  let agree (fwd, back) k v =
    let one table k v =
      match Hashtbl.find_opt table k with
      | None -> Hashtbl.replace table k v
      | Some v' -> if not (String.equal v v') then incr conflicts
    in
    one fwd k v;
    one back v k
  in
  let recording =
    {
      system with
      Engine.violations =
        (fun () ->
          incr states;
          agree canon_maps (canon ()) (Old_render.canonical spec search);
          agree plain_maps (system.Engine.fingerprint ()) (Old_render.plain spec search);
          system.Engine.violations ());
    }
  in
  let r = Engine.explore ~depth recording in
  check_int "no violations" 0 (List.length r.Engine.violations);
  check_int "keys and renders draw the same distinctions" 0 !conflicts;
  (!states, Hashtbl.length (fst plain_maps), Hashtbl.length (fst canon_maps))

let test_keys_match_renders () =
  let q = MC.default_spec MC.Quorum in
  List.iter
    (fun (name, spec, depth) ->
      let states, plain, canon = keys_match_renders spec ~depth in
      check_bool (name ^ ": states walked") true (states > 0 && plain > 0);
      check_bool (name ^ ": canon no finer than plain") true (canon <= plain))
    [
      ("n=4", q, 4);
      ("n=5", { q with MC.n = 5 }, 4);
      ( "n=5 f=2 0:4 amnesia:1",
        { q with MC.n = 5; f = 2; injections = [ (0, [ 4 ]) ]; faults = [ MC.Amnesia 1 ] },
        4 );
      ("n=4 equivocate:0", { q with MC.injections = []; faults = [ MC.Equivocate 0 ] }, 5);
      ("n=5 equivocate:0", { q with MC.n = 5; injections = []; faults = [ MC.Equivocate 0 ] }, 4);
      ("n=3 churn:1", { q with MC.n = 3; injections = []; faults = [ MC.Churn 1 ] }, 9);
      ( "n=5 f=2 0:4 region:2,3",
        { q with MC.n = 5; f = 2; injections = [ (0, [ 4 ]) ]; faults = [ MC.Region [ 2; 3 ] ] },
        4 );
    ]

(* Refinement pays: over the n=5 sym exploration (free pids {1,2,4},
   3! = 6 labellings) a canonical call keys fewer candidates than the
   group on average. *)
let test_sym_fewer_candidates_than_group () =
  let system, search = MC.make_with_canon_search { (MC.default_spec MC.Quorum) with MC.n = 5 } in
  let canon = Option.get system.Engine.symmetry in
  let calls = ref 0 and rendered = ref 0 in
  let counting () =
    incr calls;
    rendered := !rendered + search.MC.candidates ();
    canon ()
  in
  let r = Engine.explore ~sym:true ~depth:4 { system with Engine.symmetry = Some counting } in
  check_int "n=5 sym visited pin" 335 r.Engine.visited;
  let group_order = 6 in
  check_bool "canonical calls made" true (!calls > 0);
  check_bool
    (Printf.sprintf "%d candidates over %d calls < %d per call" !rendered !calls group_order)
    true
    (!rendered < !calls * group_order)

(* Pinned orbit collapse at n=4: same depth, strictly fewer states, no
   violations introduced, and the sharded explorer agrees. *)
let test_sym_explore_quorum_n4 () =
  let spec = MC.default_spec MC.Quorum in
  let plain = Engine.explore ~depth:4 (MC.make spec) in
  let sym = Engine.explore ~sym:true ~depth:4 (MC.make spec) in
  check_int "plain visited pin" 509 plain.Engine.visited;
  check_int "sym visited pin" 272 sym.Engine.visited;
  check_int "no violations" 0 (List.length sym.Engine.violations);
  let sh = Shard.explore ~jobs:2 ~sym:true ~depth:4 (fun () -> MC.make spec) in
  check_int "sharded sym agrees" 272 sh.Shard.report.Engine.visited

(* Acceptance: symmetry lets the exhaustive quorum instance run at n=5
   within the n=4 state budget (509 states at the same depth). The free
   orbit {1,2,4} has order 3! = 6; the canonical fingerprint collapses
   1488 plain states to 335. *)
let test_sym_explore_quorum_n5_within_budget () =
  let spec = { (MC.default_spec MC.Quorum) with MC.n = 5 } in
  let plain = Engine.explore ~depth:4 (MC.make spec) in
  let sym = Engine.explore ~sym:true ~depth:4 (MC.make spec) in
  check_int "n=5 plain visited pin" 1488 plain.Engine.visited;
  check_int "n=5 sym visited pin" 335 sym.Engine.visited;
  check_bool "within the n=4 plain budget" true (sym.Engine.visited < 509);
  check_int "no violations" 0 (List.length sym.Engine.violations)

(* Symmetry must not hide the seeded bug, and the counterexample still
   shrinks to the single-delivery schedule. *)
let test_sym_seeded_bug_found () =
  let spec = { (MC.default_spec MC.Quorum) with MC.seeded_bug = true } in
  let r = Engine.explore ~sym:true ~depth:3 (MC.make spec) in
  Qs_core.Quorum_select.test_buggy_quorum_size := false;
  match
    List.find_opt (fun v -> v.Engine.check = "quorum-size") r.Engine.violations
  with
  | None -> Alcotest.fail "seeded bug hidden by symmetry reduction"
  | Some v ->
    check_string "still shrinks to one delivery" "d0"
      (Schedule.to_string v.Engine.schedule)

(* ------------------------------------------------------------------ *)
(* Shrink memoization *)

(* Satellite: with a snapshotting system, memoized shrinking reaches the
   same minimum with the same oracle calls but strictly fewer applies —
   candidate replays fast-forward through shared prefixes. *)
let test_shrink_memo_fewer_applies () =
  let spec = { (MC.default_spec MC.Quorum) with MC.seeded_bug = true } in
  let system = MC.make spec in
  (* An 8-step walk that picks the last enabled choice each time: plenty of
     redundant deliveries around the one that trips the seeded bug. *)
  let sched =
    system.Engine.reset ();
    let rec go acc n =
      if n = 0 then List.rev acc
      else
        match system.Engine.enabled () with
        | [] -> List.rev acc
        | cis ->
          let ci = List.nth cis (List.length cis - 1) in
          ignore (system.Engine.apply ci.Engine.choice);
          go (ci.Engine.choice :: acc) (n - 1)
    in
    go [] 8
  in
  check_bool "unshrunk schedule is non-trivial" true (List.length sched > 1);
  check_bool "walk trips the seeded bug" true
    (List.exists
       (fun (check, _) -> check = "quorum-size")
       (Engine.replay system sched));
  let applies = ref 0 in
  let counted =
    { system with Engine.apply = (fun c -> incr applies; system.Engine.apply c) }
  in
  let run memo =
    applies := 0;
    let s, replays = Engine.shrink ~memo counted ~check:"quorum-size" sched in
    (s, replays, !applies)
  in
  let s_memo, r_memo, a_memo = run true in
  let s_plain, r_plain, a_plain = run false in
  Qs_core.Quorum_select.test_buggy_quorum_size := false;
  check_string "same minimal schedule" (Schedule.to_string s_plain)
    (Schedule.to_string s_memo);
  check_int "same oracle calls" r_plain r_memo;
  check_bool
    (Printf.sprintf "memo applies fewer transitions (%d < %d)" a_memo a_plain)
    true
    (a_memo < a_plain)

(* ------------------------------------------------------------------ *)
(* Metrics plumbing *)

let test_observe_records () =
  let m = Qs_obs.Metrics.create () in
  let r =
    Shard.random ~jobs:2 ~seed:3 ~iters:6 (fun () ->
        MC.make (MC.default_spec MC.Quorum))
  in
  Shard.observe ~m r;
  check_bool "steals counter exists" true
    (Qs_obs.Metrics.find_counter ~m "mc_steals_total" <> None);
  check_bool "stalls counter exists" true
    (Qs_obs.Metrics.find_counter ~m "mc_merge_stalls_total" <> None)

let () =
  Alcotest.run "shard"
    [
      ( "random",
        [
          Alcotest.test_case "jobs byte-identical" `Quick test_random_jobs_byte_identical;
          Alcotest.test_case "walks reach quiescence" `Quick test_random_walks_reach_quiescence;
          Alcotest.test_case "seeded bug identical" `Quick test_random_seeded_bug_jobs_identical;
          Alcotest.test_case "shard stats account" `Quick test_random_shard_stats_account;
        ] );
      ( "explore",
        [
          Alcotest.test_case "toy matches engine" `Quick test_explore_toy_matches_engine;
          Alcotest.test_case "quorum n3 jobs agree" `Quick test_explore_quorum_jobs_agree;
          Alcotest.test_case "amnesia jobs agree" `Quick test_explore_amnesia_jobs_agree;
          Alcotest.test_case "follower jobs agree" `Quick test_explore_follower_jobs_agree;
          Alcotest.test_case "seeded bug agrees" `Quick test_explore_seeded_bug_jobs_agree;
        ] );
      ( "symmetry",
        QCheck_alcotest.to_alcotest prop_matrix_canon_perm_invariant
        :: [
             Alcotest.test_case "identity perm fingerprint" `Quick
               test_fingerprint_perm_identity;
             Alcotest.test_case "sibling states same canon" `Quick
               test_sym_sibling_states_equal_canon;
             Alcotest.test_case "partition matches full group" `Quick
               test_sym_partition_matches_full_group;
             Alcotest.test_case "keys match the old renders" `Quick test_keys_match_renders;
             Alcotest.test_case "fewer candidates than group" `Quick
               test_sym_fewer_candidates_than_group;
             Alcotest.test_case "n4 orbit collapse pins" `Quick
               test_sym_explore_quorum_n4;
             Alcotest.test_case "n5 within n4 budget" `Quick
               test_sym_explore_quorum_n5_within_budget;
             Alcotest.test_case "seeded bug still found" `Quick
               test_sym_seeded_bug_found;
           ] );
      ( "shrink",
        [
          Alcotest.test_case "memo fewer applies" `Quick
            test_shrink_memo_fewer_applies;
        ] );
      ( "metrics",
        [ Alcotest.test_case "observe records" `Quick test_observe_records ] );
    ]
