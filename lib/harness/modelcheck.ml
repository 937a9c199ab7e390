module Engine = Qs_mc.Engine
module Schedule = Qs_mc.Schedule
module Sim = Qs_sim.Sim
module Network = Qs_sim.Network
module Smr = Qs_sim.Smr_cluster
module Stime = Qs_sim.Stime
module Pid = Qs_core.Pid
module QS = Qs_core.Quorum_select
module FS = Qs_follower.Follower_select
module Monitor = Qs_faults.Monitor
module Fault = Qs_faults.Fault
module Rejoin = Qs_recovery.Rejoin
module Codec = Qs_recovery.Codec
module Metrics = Qs_obs.Metrics
module Journal = Qs_obs.Journal
module Indep = Qs_graph.Indep
module K = Qs_stdx.State_key

type protocol = Quorum | Follower | Stack of string

let protocol_name = function
  | Quorum -> "quorum"
  | Follower -> "follower"
  | Stack name -> name

let protocol_of_name s =
  match String.lowercase_ascii s with
  | "quorum" -> Some Quorum
  | "follower" -> Some Follower
  | s -> Option.map (fun (name, _, _) -> Stack name) (Stack.find s)

(* The descriptor and variant a [Stack] protocol names. *)
let stack_of name =
  match Stack.find name with
  | Some (_, stack, variant) -> (stack, variant)
  | None -> invalid_arg (Printf.sprintf "Modelcheck: unknown stack %S" name)

type fault = Amnesia of int | Equivocate of int | Churn of int | Region of int list

let fault_kind = function
  | Amnesia _ -> "amnesia"
  | Equivocate _ -> "equivocate"
  | Churn _ -> "churn"
  | Region _ -> "region"

(* The pids a fault makes faulty: what it must not share with a crash, and
   what it draws from the f-budget. *)
let fault_targets = function
  | Amnesia p | Equivocate p | Churn p -> [ p ]
  | Region members -> members

let fault_to_string fault =
  fault_kind fault ^ ":" ^ String.concat "," (List.map string_of_int (fault_targets fault))

let fault_of_string s =
  match String.index_opt s ':' with
  | None -> None
  | Some i -> (
    let kind = String.lowercase_ascii (String.sub s 0 i) in
    let args = String.split_on_char ',' (String.sub s (i + 1) (String.length s - i - 1)) in
    let pids = List.map int_of_string_opt args in
    let pids = if List.for_all Option.is_some pids then List.map Option.get pids else [] in
    let bad want = invalid_arg (Printf.sprintf "bad fault %S (want %s)" s want) in
    match (kind, pids) with
    | "amnesia", [ p ] -> Some (Amnesia p)
    | "equivocate", [ p ] -> Some (Equivocate p)
    | "churn", [ p ] -> Some (Churn p)
    | "region", _ :: _ -> Some (Region pids)
    | ("amnesia" | "equivocate" | "churn"), _ -> bad (kind ^ ":P")
    | "region", [] -> bad "region:M1,M2"
    | _ -> None)

let injection_of_string s =
  match String.index_opt s ':' with
  | None -> None
  | Some i -> (
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    let suspects = List.map int_of_string_opt (String.split_on_char ',' rest) in
    match (int_of_string_opt (String.sub s 0 i), suspects) with
    | Some p, suspects when List.for_all Option.is_some suspects ->
      Some (p, List.map Option.get suspects)
    | _ -> None)

type spec = {
  protocol : protocol;
  n : int;
  f : int;
  injections : (int * int list) list;
  crashes : int list;
  faults : fault list;
  requests : int;
  seeded_bug : bool;
}

let default_spec protocol =
  let base =
    {
      protocol;
      n = 4;
      f = 1;
      injections = [];
      crashes = [];
      faults = [];
      requests = 0;
      seeded_bug = false;
    }
  in
  match protocol with
  | Quorum -> { base with injections = [ (0, [ 3 ]) ] }
  | Follower -> { base with injections = [ (1, [ 0 ]) ] }
  | Stack name ->
    let (module S : Stack.STACK), variant = stack_of name in
    (* 4 unless the replicas refuse it (MinBFT runs exactly 2f + 1). *)
    let n =
      try ignore (S.create ~n:4 ~f:1 ~seed:1L variant); 4
      with Invalid_argument _ -> S.default_n ~f:1
    in
    { base with n; requests = 1 }

let validate spec =
  QS.validate_config { QS.n = spec.n; f = spec.f };
  let pid ctx p =
    if p < 0 || p >= spec.n then
      invalid_arg (Printf.sprintf "Modelcheck: %s pid %d out of range [0,%d)" ctx p spec.n)
  in
  List.iter (pid "crash") spec.crashes;
  List.iteri
    (fun i fault ->
      let name = fault_to_string fault and targets = fault_targets fault in
      if spec.protocol <> Quorum then
        invalid_arg
          (Printf.sprintf
             "Modelcheck: %s: fault exploration is only wired for the quorum instance" name);
      if List.mem fault (List.filteri (fun j _ -> j < i) spec.faults) then
        invalid_arg (Printf.sprintf "Modelcheck: duplicate fault %s" name);
      if targets = [] then invalid_arg "Modelcheck: a region has no members";
      if List.length targets <> List.length (List.sort_uniq compare targets) then
        invalid_arg (Printf.sprintf "Modelcheck: %s has a duplicate member" name);
      List.iter
        (fun p ->
          pid (fault_kind fault) p;
          if List.mem p spec.crashes then
            invalid_arg
              (Printf.sprintf "Modelcheck: p%d is crashed; it cannot also take %s" p name))
        targets)
    spec.faults;
  (* Every fault target is faulty — an amnesia crash is a crash, an
     equivocator is Byzantine, a churned process is briefly stale mid-rejoin,
     a lost region mutes all its members — so all of them share one f-budget
     with the mute crashes. *)
  let faulty = List.sort_uniq compare (spec.crashes @ List.concat_map fault_targets spec.faults) in
  if List.length faulty > spec.f then
    invalid_arg
      "Modelcheck: more than f faulty processes (crashes + fault targets) is out of model";
  (* A stack instance has no hook that seeds a suspicion; accepting one
     would explore the uninjected system under the injected one's name. *)
  (match (spec.protocol, spec.injections) with
  | Stack _, (p, s) :: _ ->
    invalid_arg
      (Printf.sprintf
         "Modelcheck: inject %d:%s: initial suspicions are quorum/follower only" p
         (String.concat "," (List.map string_of_int s)))
  | _ -> ());
  List.iter
    (fun (p, s) ->
      pid "inject" p;
      List.iter (pid "inject suspect") s)
    spec.injections;
  if spec.requests < 0 then invalid_arg "Modelcheck: negative requests";
  let algorithm1 =
    match spec.protocol with
    | Quorum -> true
    | Follower -> false
    | Stack name -> (
      let (module S : Stack.STACK), variant = stack_of name in
      match S.create ~n:spec.n ~f:spec.f ~seed:1L variant with
      | exception Invalid_argument m -> invalid_arg ("Modelcheck: " ^ m)
      | c -> Option.is_some (Option.bind (S.selector c 0) (fun s -> s.Stack.algorithm1)))
  in
  if spec.seeded_bug && not algorithm1 then
    invalid_arg "Modelcheck: seeded-bug needs an embedded Algorithm-1 instance"

let correct_pids spec =
  List.filter (fun p -> not (List.mem p spec.crashes)) (List.init spec.n Fun.id)

(* A plain fingerprint: the state [write] writes into one reused key under
   the identity labelling. *)
let identity_key ~n write =
  let key = K.create () and identity = Array.init n Fun.id in
  fun () ->
    K.reset key identity;
    write key;
    K.to_string key

(* A parked message's choice is keyed id-free; see Engine.choice_info. *)
let deliver_choices net digest =
  List.map
    (fun (id, src, dst, payload) ->
      { Engine.choice = Schedule.Deliver id; canon = Smr.parked_key digest src dst payload;
        receiver = Some dst })
    (Network.deliverable net)

let drop_crashed_filter crashes = fun ~now:_ ~src ~dst _ ->
  if List.mem src crashes || List.mem dst crashes then Network.Drop else Network.Deliver

(* Theorem 3/9 presuppose at most [f] suspected processes; a schedule that
   drives more than [f] distinct processes into suspicion (frozen-time timer
   fires make false suspicions cheap) is out of model, and the per-epoch
   bound genuinely need not hold there. Bound checks are therefore gated on
   the blamed set staying within the budget; size/independence/agreement
   checks are unconditional. *)
let within_budget ~f blamed = List.length (List.sort_uniq compare blamed) <= f

(* Algorithm 1's per-process checks over one selector, shared by the quorum
   and stack instances: |Q| = n - f, Theorem 3's per-epoch bound (only
   while the path is [in_model]) and instantaneous no-suspicion (the quorum
   is independent in the issuer's suspect graph). *)
let selector_violations spec ~in_model p qs =
  let lq = QS.last_quorum qs in
  let qsize = QS.q { QS.n = spec.n; f = spec.f } in
  let issued = QS.max_issued_per_epoch qs and bound = Monitor.theorem3 ~f:spec.f in
  (if List.length lq <> qsize then
     [ ( "quorum-size",
         Printf.sprintf "p%d holds |Q| = %d, want n - f = %d" p (List.length lq) qsize ) ]
   else [])
  @ (if in_model && issued > bound then
       [ ( "quorum-bound",
           Printf.sprintf "p%d issued %d quorums in one epoch > f(f+1) = %d" p issued bound ) ]
     else [])
  @
  if Indep.is_independent (QS.suspect_graph qs) lq then []
  else
    [ ( "no-suspicion",
        Printf.sprintf "p%d's quorum {%s} is not independent in its suspect graph" p
          (String.concat "," (List.map string_of_int lq)) ) ]

(* ---------------------------------------------------------------- quorum *)

(* The quorum instance's controlled network carries both planes: Algorithm-1
   UPDATE gossip and the rejoin protocol's State_req/State_resp traffic, so
   the checker explores every interleaving of recovery against selection. *)
type qwire = Q_update of Qs_core.Msg.t | Q_rejoin of Rejoin.msg

(* One row of the quorum instance's fault table: the choice that fires the
   fault, the pids it blames (for the in-model gate and the symmetry group),
   and its effect on the current state ([false]: nothing to fire). *)
type fault_row = { info : Engine.choice_info; blamed : int list; fire : unit -> bool }

type canon_search = {
  full_canon : unit -> string;
  candidates : unit -> int;
  free : int list;
  selectors : unit -> QS.t array;
  rejoins : unit -> Rejoin.t array;
  in_flight : unit -> (int * int * qwire) list;
  fired : unit -> bool list;
}

let make_quorum spec =
  let cfg = { QS.n = spec.n; f = spec.f } in
  let correct = correct_pids spec in
  (* The two peers an [Equivocate p] choice sends its conflicting row
     variants to — fixed, so the choice is deterministic and replayable. *)
  let equivocation_peers p =
    match List.filter (fun q -> q <> p) (List.init spec.n Fun.id) with
    | a :: b :: _ -> Some (a, b)
    | _ -> None
  in
  let encode = function
    | Q_update (m : Qs_core.Msg.t) -> "u" ^ Qs_core.Msg.encode m.update
    | Q_rejoin m -> "r" ^ Rejoin.encode_msg m
  in
  (* This system's encoded payload -> digest memo. Choice keys, the plain
     pending render and every relabeled pending render hash the same few
     payloads over and over; it is per system, not global, because
     [Shard.explore] runs one system per domain. Never cleared: it holds
     one entry per distinct payload this instance can send, however long
     the search runs. *)
  let digests : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let digest_of enc =
    match Hashtbl.find_opt digests enc with
    | Some d -> d
    | None ->
      let d = Qs_crypto.Sha256.digest_hex enc in
      Hashtbl.add digests enc d;
      d
  in
  let digest payload = digest_of (encode payload) in
  (* Deterministic in n (fixed default master secret), so one directory
     serves every reset — and lets the Equivocate choice re-sign variants. *)
  let auth = Qs_crypto.Auth.create spec.n in
  (* Members of already-lost regions: mute both directions from the loss
     point on (the filter below reads this live). *)
  let muted = Array.make spec.n false in
  let has_regions = List.exists (function Region _ -> true | _ -> false) spec.faults in
  let state = ref None in
  let nodes () = let n, _, _ = Option.get !state in n in
  let rejoins () = let _, r, _ = Option.get !state in r in
  let net () = let _, _, n = Option.get !state in n in
  (* ---- fault table ------------------------------------------------
     Each declared fault is one row, enabled once at every state until
     fired. Rows run kind-major (amnesia, equivocate, churn, region), in
     declaration order within a kind. That is the order their choices are
     enabled in, so the exploration and its counts do not depend on how
     faults of different kinds are interleaved in the declaration. *)
  let row choice blamed fire =
    { info = { Engine.choice; canon = Schedule.choice_to_string choice; receiver = None };
      blamed;
      fire }
  in
  (* [i]: the fault's position among the declared faults of its kind. *)
  let of_fault i = function
    | Amnesia p ->
      (* Lose the volatile selection state, kill the crashed incarnation's
         in-flight messages, and open a rejoin round: the State_req
         broadcast parks on the controlled network, so every interleaving
         of recovery traffic against UPDATE gossip is explored. *)
      row (Schedule.Amnesia p) [ p ] (fun () ->
          QS.amnesia (nodes ()).(p);
          ignore (Network.drop_pending_to (net ()) p : int);
          Rejoin.start (rejoins ()).(p);
          true)
    | Equivocate p -> (
      (* One commission fault: two validly-signed variants of p's own row,
         each inflating a fake suspicion of its recipient, leave for two
         different peers. The variants are pointwise incomparable, the
         forward-on-change gossip spreads both, and the max-merge must
         still drive every correct process to the same union matrix. *)
      match equivocation_peers p with
      | None -> row (Schedule.Equivocate p) [ p ] (fun () -> false)
      | Some (a, b) ->
        row (Schedule.Equivocate p) [ p; a; b ] (fun () ->
            let base = Qs_core.Suspicion_matrix.row (QS.matrix (nodes ()).(p)) p in
            let variant victim =
              let row = Array.copy base in
              row.(victim) <- row.(victim) + 1;
              Q_update (Qs_core.Msg.seal auth { Qs_core.Msg.owner = p; row })
            in
            Network.send (net ()) ~src:p ~dst:a (variant a);
            Network.send (net ()) ~src:p ~dst:b (variant b);
            true))
    | Churn p ->
      (* One atomic membership change: p leaves and instantly rejoins
         under a fresh slot. Every process reconfigures to the same
         width with p's row and column wiped (of_new p = -1) and the
         config epoch bumped; the crashed-incarnation's in-flight
         messages die with it, and p bootstraps its wiped state back
         through a rejoin round — so the checker explores every
         interleaving of stale pre-churn gossip, the reconfiguration
         point, and the recovery traffic. *)
      row (Schedule.Churn p) [ p ] (fun () ->
          let cepoch = QS.cepoch (nodes ()).(0) + 1 in
          let of_new i = if i = p then -1 else i in
          Array.iteri (fun me node -> QS.reconfigure node cfg ~me ~cepoch ~of_new) (nodes ());
          ignore (Network.drop_pending_to (net ()) p : int);
          Rejoin.start (rejoins ()).(p);
          true)
    | Region members ->
      (* One correlated whole-domain loss: every member goes mute at once.
         Messages already addressed to a member die with it; a member's
         own pre-loss gossip stays in flight (parked sends survive), so
         exploration covers stale late-arriving traffic from the lost
         domain. *)
      row (Schedule.Region i) members (fun () ->
          List.iter
            (fun p ->
              muted.(p) <- true;
              ignore (Network.drop_pending_to (net ()) p : int))
            members;
          true)
  in
  let rows =
    List.concat_map
      (fun kind ->
        List.mapi of_fault (List.filter (fun fault -> fault_kind fault = kind) spec.faults))
      [ "amnesia"; "equivocate"; "churn"; "region" ]
    |> Array.of_list
  in
  let fired = Array.make (Array.length rows) false in
  let rec fire i choice =
    if i = Array.length rows then false
    else if fired.(i) || rows.(i).info.Engine.choice <> choice then fire (i + 1) choice
    else begin
      fired.(i) <- rows.(i).fire ();
      fired.(i)
    end
  in
  let blamed = List.concat_map (fun r -> r.blamed) (Array.to_list rows) in
  (* Static: the only suspicions Algorithm 1 ever sees here are the injected
     ones (plus an equivocator's fake claims about its two victim peers), so
     the in-model gate is decided by the spec. Every fault's blamed pids
     are faulty (at least briefly), so they count against the budget too. *)
  let enforce_bound =
    within_budget ~f:spec.f (spec.crashes @ blamed @ List.concat_map snd spec.injections)
  in
  let reset () =
    Metrics.reset ();
    (* Rejoin journals Recovery_* events when the journal is live; the
       quorum instance never reads it, so keep it off — exploration visits
       far too many states to accumulate an event log. *)
    Journal.clear ();
    Journal.set_enabled false;
    Array.fill fired 0 (Array.length fired) false;
    Array.fill muted 0 spec.n false;
    QS.test_buggy_quorum_size := spec.seeded_bug;
    let sim = Sim.create () in
    let network = Network.create ~sim ~n:spec.n ~delay:(Network.Fixed (Stime.of_ms 1)) () in
    Network.set_controlled network true;
    if spec.crashes <> [] then ignore (Network.add_filter network (drop_crashed_filter spec.crashes));
    if has_regions then
      ignore
        (Network.add_filter network (fun ~now:_ ~src ~dst _ ->
             if muted.(src) || muted.(dst) then Network.Drop else Network.Deliver));
    let slots = Array.make spec.n None in
    for me = 0 to spec.n - 1 do
      slots.(me) <-
        Some
          (QS.create cfg ~me ~auth
             ~send:(fun m -> Network.broadcast network ~src:me (Q_update m))
             ~on_quorum:(fun _ -> ())
             ())
    done;
    let ns = Array.map Option.get slots in
    (* Frozen time: no retry timers (controlled delivery is reliable, so a
       single round always completes) and no gossip. needed stays 1. *)
    let rjcfg = { (Rejoin.default_config ~n:spec.n) with Rejoin.retry_every = None } in
    let rjs =
      Array.init spec.n (fun me ->
          Rejoin.create ~sim rjcfg ~me
            ~collect:(fun () ->
              { Rejoin.matrix = Codec.encode_matrix (QS.matrix ns.(me));
                epoch = QS.epoch ns.(me);
                extra = "" })
            ~adopt:(fun ~matrix ~epoch ~extra:_ -> QS.absorb ns.(me) ~matrix ~epoch)
            ~send:(fun ~dst msg -> Network.send network ~src:me ~dst (Q_rejoin msg))
            ())
    in
    Array.iteri
      (fun p node ->
        Network.set_handler network p (fun ~src m ->
            match m with
            | Q_update u -> QS.handle_update node u
            | Q_rejoin r -> Rejoin.handle rjs.(p) ~src r))
      ns;
    state := Some (ns, rjs, network);
    List.iter
      (fun (p, s) -> if not (List.mem p spec.crashes) then QS.handle_suspected ns.(p) s)
      spec.injections
  in
  (* Members of a lost region are faulty from that point on: stale by
     construction, so every correctness check ranges over the survivors. *)
  let live_correct () = List.filter (fun p -> not muted.(p)) correct in
  (* Standing quorums: two correct survivors at the same (config epoch,
     detector epoch) must hold quorums overlapping in at least n - 2f
     processes. Appended after the per-process checks so a schedule that
     also undersizes a quorum keeps reporting quorum-size first. *)
  let intersection_violations () =
    let threshold = Qs_core.Quorum_intersection.threshold ~n:spec.n ~f:spec.f in
    let groups = ref [] in
    List.iter
      (fun p ->
        let node = (nodes ()).(p) in
        let q = List.sort_uniq compare (QS.last_quorum node) in
        let key = (QS.cepoch node, QS.epoch node) in
        let qs = Option.value ~default:[] (List.assoc_opt key !groups) in
        if not (List.mem q qs) then groups := (key, q :: qs) :: List.remove_assoc key !groups)
      (live_correct ());
    List.concat_map
      (fun ((ce, e), qs) ->
        let rec pairs = function
          | [] -> []
          | q :: rest ->
            List.filter_map
              (fun q' ->
                let o = Qs_core.Quorum_intersection.overlap q q' in
                if o < threshold then
                  Some
                    ( "quorum-intersection",
                      Printf.sprintf
                        "quorums {%s} and {%s} at cepoch %d epoch %d overlap in %d < n - 2f = %d"
                        (String.concat "," (List.map string_of_int q))
                        (String.concat "," (List.map string_of_int q'))
                        ce e o threshold )
                else None)
              rest
            @ pairs rest
        in
        pairs qs)
      (List.rev !groups)
  in
  let violations () =
    List.concat_map
      (fun p -> selector_violations spec ~in_model:enforce_bound p (nodes ()).(p))
      (live_correct ())
    @ intersection_violations ()
  in
  let quiescent_violations () =
    match live_correct () with
    | [] -> []
    | first :: rest ->
      let node p = (nodes ()).(p) in
      let q0 = QS.last_quorum (node first) in
      let m0 = QS.matrix (node first) in
      let disagree =
        List.filter_map
          (fun p -> if QS.last_quorum (node p) <> q0 then Some p else None)
          rest
      in
      let diverged =
        List.filter_map
          (fun p -> if Qs_core.Suspicion_matrix.equal (QS.matrix (node p)) m0 then None else Some p)
          rest
      in
      (if disagree = [] then []
       else
         [ ( "agreement",
             Printf.sprintf "quiescent but p%s disagree with p%d on the quorum"
               (String.concat ",p" (List.map string_of_int disagree))
               first ) ])
      @
      if diverged = [] then []
      else
        [ ( "convergence",
            Printf.sprintf "quiescent but p%s's matrix differs from p%d's"
              (String.concat ",p" (List.map string_of_int diverged))
              first ) ]
  in
  (* ---- state keys --------------------------------------------------
     A state is keyed by the ints its components write into a reusable
     [State_key] buffer (see DESIGN.md, "Parallel exploration &
     symmetry"): slot i holds the selector, then the rejoin state, of the
     pid the key's permutation sends to i; then the fired bits; then the
     in-flight multiset, each message's pids and payload relabeled as it
     is written. The plain fingerprint is the key under the identity. *)
  (* Decoded payload matrices: keys and signatures write the same few
     encoded matrices over and over. Per system, not global, because
     [Shard.explore] runs one system per domain; never cleared: one entry
     per distinct matrix this instance can send. *)
  let decoded : (string, Qs_core.Suspicion_matrix.t) Hashtbl.t = Hashtbl.create 16 in
  let decode enc =
    match Hashtbl.find_opt decoded enc with
    | Some m -> m
    | None ->
      let m = Codec.decode_matrix enc in
      Hashtbl.add decoded enc m;
      m
  in
  let write_matrix key enc = Qs_core.Suspicion_matrix.write_key (decode enc) key in
  (* One in-flight message: its ends and kind in one int, then its payload.
     An UPDATE is keyed by its update alone, as its encoding was: the seal
     is a function of it under the instance's one directory. *)
  let write_message key src dst = function
    | Q_update (m : Qs_core.Msg.t) ->
      K.add key (K.pack key src dst 0);
      K.add_pid key m.update.owner;
      K.add_row key m.update.row
    | Q_rejoin rm ->
      K.add key (K.pack key src dst 1);
      Rejoin.write_msg key ~matrix:write_matrix rm
  in
  (* The pending messages, as a multiset. *)
  let write_messages key =
    K.add_multiset key (fun (_, src, dst, payload) -> write_message key src dst payload)
  in
  let write_state key =
    for i = 0 to spec.n - 1 do
      QS.write_key (nodes ()).(K.old key i) key
    done;
    for i = 0 to spec.n - 1 do
      Rejoin.write_key (rejoins ()).(K.old key i) key ~matrix:write_matrix
    done;
    (* Fault targets are all distinguished, so every permutation fixes
       them and the fired bits copy over unpermuted. *)
    Array.iter (K.add_bool key) fired;
    write_messages key (Network.pending (net ()))
  in
  (* Two buffers, made on first use: the candidate being written and the
     least one so far. *)
  let buffers = lazy (ref (K.create ()), ref (K.create ())) in
  let identity = lazy (Array.init spec.n Fun.id) in
  let plain_key () =
    let cur, _ = Lazy.force buffers in
    K.reset !cur (Lazy.force identity);
    write_state !cur;
    K.to_string !cur
  in
  (* ---- symmetry ----------------------------------------------------
     Free pids are those no fault row or injection distinguishes. The
     instance's dynamics never put a free pid at either end of a suspicion
     edge — suspicions come only from injections and equivocation fakes,
     whose endpoints are all distinguished below — so relabeling free pids
     commutes with every transition and every check, and lex-first quorum
     selection (a function of the invariant suspect graph) picks the same
     set in the relabeled execution. Sibling states differing only in which
     free process played a role form one orbit, and the canonical
     fingerprint picks one relabeled key per orbit.

     It is found by signature refinement (one round of McKay & Piperno's
     individualisation-refinement) rather than by keying every
     permutation: each free pid gets a label-free signature, and the
     candidate labellings are those that lay the free pids into the free
     slots in non-decreasing signature order — only arrangements within
     ties are enumerated. The canonical fingerprint is the least relabeled
     key over the candidates. A signature writes every pid as its class
     (see [classes]), so sig(σ·s)(σp) = sig(s)(p) for every σ in the group:
     the candidates of σ·s are those of s composed with σ⁻¹, both sets
     yield the same relabeled keys, and the minimum is an orbit invariant.
     Distinct orbits share no key, so the partition into orbits — and
     every state count — is the full group's; only the representative may
     differ from the full-group minimum. A signature need not be complete:
     a field left out only widens ties. *)
  let distinguished =
    List.sort_uniq compare
      (spec.crashes @ blamed @ List.concat_map (fun (p, s) -> p :: s) spec.injections)
  in
  let free =
    List.filter (fun p -> not (List.mem p distinguished)) (List.init spec.n Fun.id)
  in
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x ->
          List.map (fun r -> x :: r) (permutations (List.filter (( <> ) x) l)))
        l
  in
  (* Every labelling that lays [groups], one after another, into the free
     slots in increasing order, permuting members within their group:
     new pid = perm.(old pid), identity on distinguished pids. One group
     holding every free pid yields the whole group. *)
  let labellings groups =
    let slots = Array.of_list free and perm = Array.init spec.n Fun.id in
    let out = ref [] in
    let rec place at = function
      | [] -> out := Array.copy perm :: !out
      | g :: rest ->
        List.iter
          (fun order ->
            List.iteri (fun i p -> perm.(p) <- slots.(at + i)) order;
            place (at + List.length g) rest)
          (permutations g)
    in
    place 0 groups;
    !out
  in
  (* The one search: the least key over the given candidates. *)
  let canonical candidates =
    let cur, best = Lazy.force buffers in
    List.iteri
      (fun i perm ->
        K.reset !cur perm;
        write_state !cur;
        if i = 0 || K.compare !cur !best < 0 then begin
          let b = !best in
          best := !cur;
          cur := b
        end)
      candidates;
    K.to_string !best
  in
  (* How [self]'s signature labels pid [q]: [self] as -1, any other free
     pid as -2, a distinguished pid as itself — its class, never a free
     label. Every writer above takes such a labelling: what a key relabels,
     the signature writes by class; what it keeps verbatim (the quorum,
     epochs, counters), the signature keeps too. *)
  let is_free = lazy (Array.init spec.n (fun q -> List.mem q free)) in
  let classes =
    lazy
      (let is_free = Lazy.force is_free in
       Array.init spec.n (fun self ->
           Array.init spec.n (fun q -> if q = self then -1 else if is_free.(q) then -2 else q)))
  in
  (* One signature buffer and hash per pid, made on first use. *)
  let signatures = lazy (Array.init spec.n (fun _ -> K.create ()), Array.make spec.n 0) in
  (* [p]'s signature hashes its own selector and rejoin state, plus the
     multiset of pending messages it sent or receives: each written under
     its class labelling and hashed on its own, and the hashes summed, so
     their order does not count. The free pids are grouped by signature,
     in the order of the hashes. A collision would only merge two groups:
     a wider tie, never a wrong canonical form. *)
  let tie_groups () =
    let sigs, hashes = Lazy.force signatures
    and classes = Lazy.force classes
    and is_free = Lazy.force is_free in
    List.iter
      (fun p ->
        let key = sigs.(p) in
        K.reset key classes.(p);
        QS.write_key (nodes ()).(p) key;
        Rejoin.write_key (rejoins ()).(p) key ~matrix:write_matrix;
        hashes.(p) <- K.hash key)
      free;
    let add p src dst payload =
      let key = sigs.(p) in
      let start = K.length key in
      write_message key src dst payload;
      hashes.(p) <- hashes.(p) + K.hash_from key start;
      K.truncate key start
    in
    List.iter
      (fun (_, src, dst, payload) ->
        if is_free.(src) then add src src dst payload;
        if is_free.(dst) && dst <> src then add dst src dst payload)
      (Network.pending (net ()));
    List.map (fun p -> (hashes.(p), p)) free
    |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.fold_left
         (fun acc (h, p) ->
           match acc with
           | (h', g) :: rest when h = h' -> (h, p :: g) :: rest
           | _ -> (h, [ p ]) :: acc)
         []
    |> List.rev_map snd
  in
  let symmetry =
    if List.compare_length_with free 2 < 0 then None
    else Some (fun () -> canonical (labellings (tie_groups ())))
  in
  let system =
    {
      Engine.reset;
      enabled =
        (fun () ->
          deliver_choices (net ()) digest
          @ List.filteri (fun i _ -> not fired.(i)) (Array.to_list (Array.map (fun r -> r.info) rows)));
      apply =
        (function Schedule.Deliver id -> Network.deliver_now (net ()) id | choice -> fire 0 choice);
      fingerprint = plain_key;
      violations;
      quiescent_violations;
      snapshot =
        Some
          (fun () ->
            let ns = Array.map QS.snapshot (nodes ()) in
            let rs = Array.map Rejoin.snapshot (rejoins ()) in
            let fd = Array.copy fired in
            let mu = Array.copy muted in
            let net_snap = Network.snapshot (net ()) in
            fun () ->
              Array.iteri (fun i s -> QS.restore (nodes ()).(i) s) ns;
              Array.iteri (fun i s -> Rejoin.restore (rejoins ()).(i) s) rs;
              Array.blit fd 0 fired 0 (Array.length fired);
              Array.blit mu 0 muted 0 spec.n;
              Network.restore (net ()) net_snap);
      symmetry;
    }
  in
  ( system,
    {
      full_canon = (fun () -> canonical (labellings [ free ]));
      candidates = (fun () -> List.length (labellings (tie_groups ())));
      free;
      selectors = nodes;
      rejoins;
      in_flight =
        (fun () -> List.map (fun (_, src, dst, m) -> (src, dst, m)) (Network.pending (net ())));
      fired = (fun () -> Array.to_list fired);
    } )

(* -------------------------------------------------------------- follower *)

type fd_state = {
  mutable transient : Pid.t list;
  mutable permanent : Pid.t list;
  mutable expectation : (Pid.t * int) option;
}

let make_follower spec =
  let cfg = { QS.n = spec.n; f = spec.f } in
  let qsize = QS.q cfg in
  let bound = Monitor.theorem9 ~f:spec.f in
  let correct = correct_pids spec in
  let digest (m : Qs_follower.Fmsg.t) =
    Qs_crypto.Sha256.digest_hex (Qs_follower.Fmsg.encode m.payload)
  in
  let state = ref None in
  let nodes () = let n, _, _ = Option.get !state in n in
  let fds () = let _, f, _ = Option.get !state in f in
  let net () = let _, _, n = Option.get !state in n in
  let suspicion_set fd = List.sort_uniq compare (fd.transient @ fd.permanent) in
  let reset () =
    Metrics.reset ();
    QS.test_buggy_quorum_size := false;
    let sim = Sim.create () in
    let network =
      Network.create ~sim ~n:spec.n ~delay:(Network.Fixed (Stime.of_ms 1)) ~fifo:true ()
    in
    Network.set_controlled network true;
    if spec.crashes <> [] then ignore (Network.add_filter network (drop_crashed_filter spec.crashes));
    let auth = Qs_crypto.Auth.create spec.n in
    let fd_arr =
      Array.init spec.n (fun _ -> { transient = []; permanent = []; expectation = None })
    in
    let slots = Array.make spec.n None in
    let publish me =
      match slots.(me) with
      | None -> ()
      | Some node -> FS.handle_suspected node (suspicion_set fd_arr.(me))
    in
    for me = 0 to spec.n - 1 do
      slots.(me) <-
        Some
          (FS.create cfg ~me ~auth
             ~send:(fun msg -> Network.broadcast network ~src:me msg)
             ~on_quorum:(fun ~leader:_ _ -> ())
             ~fd_expect:(fun ~leader ~epoch -> fd_arr.(me).expectation <- Some (leader, epoch))
             ~fd_cancel:(fun () -> fd_arr.(me).expectation <- None)
             ~fd_detected:(fun culprit ->
               let fd = fd_arr.(me) in
               if not (List.mem culprit fd.permanent) then begin
                 fd.permanent <- culprit :: fd.permanent;
                 publish me
               end)
             ())
    done;
    let ns = Array.map Option.get slots in
    Array.iteri
      (fun p node -> Network.set_handler network p (fun ~src:_ m -> FS.handle_msg node m))
      ns;
    state := Some (ns, fd_arr, network);
    List.iter
      (fun (p, s) ->
        if not (List.mem p spec.crashes) then begin
          fd_arr.(p).transient <- s;
          publish p
        end)
      spec.injections
  in
  let fire_choices () =
    List.filter_map
      (fun p ->
        match (fds ()).(p).expectation with
        | Some _ ->
          Some
            { Engine.choice = Schedule.Fire p;
              canon = Schedule.choice_to_string (Schedule.Fire p);
              receiver = None }
        | None -> None)
      correct
  in
  let apply = function
    | Schedule.Deliver id -> Network.deliver_now (net ()) id
    | Schedule.Fire p -> (
      let fd = (fds ()).(p) in
      match fd.expectation with
      | None -> false
      | Some (leader, _) ->
        fd.expectation <- None;
        if not (List.mem leader fd.transient) then fd.transient <- leader :: fd.transient;
        FS.handle_suspected (nodes ()).(p) (suspicion_set fd);
        true)
    | Schedule.Step | Schedule.Amnesia _ | Schedule.Equivocate _ | Schedule.Churn _
    | Schedule.Region _ ->
      false
  in
  let violations () =
    (* fd transient/permanent sets only grow (and snapshots restore them),
       so this gate is monotone along any path. *)
    let enforce_bound =
      within_budget ~f:spec.f
        (spec.crashes @ List.concat_map (fun p -> suspicion_set (fds ()).(p)) correct)
    in
    List.concat_map
      (fun p ->
        let node = (nodes ()).(p) in
        let lq = FS.last_quorum node in
        let out = ref [] in
        if List.length lq <> qsize then
          out :=
            ( "quorum-size",
              Printf.sprintf "p%d holds |Q| = %d, want n - f = %d" p (List.length lq) qsize )
            :: !out;
        if enforce_bound && FS.max_issued_per_epoch node > bound then
          out :=
            ( "quorum-bound",
              Printf.sprintf "p%d issued %d quorums in one epoch > 3f+1 = %d" p
                (FS.max_issued_per_epoch node) bound )
            :: !out;
        List.rev !out)
      correct
  in
  let quiescent_violations () =
    match correct with
    | [] -> []
    | first :: rest ->
      let view p = (FS.leader (nodes ()).(p), FS.last_quorum (nodes ()).(p)) in
      let v0 = view first in
      let disagree = List.filter (fun p -> view p <> v0) rest in
      (* Locally computed leader vs. adopted quorum can disagree while a
         FOLLOWERS message is in flight; once nothing is, they must not. *)
      let stray =
        List.filter
          (fun p ->
            let node = (nodes ()).(p) in
            not (List.mem (FS.leader node) (FS.last_quorum node)))
          correct
      in
      (if disagree = [] then []
       else
         [ ( "agreement",
             Printf.sprintf "quiescent but p%s disagree with p%d on (leader, quorum)"
               (String.concat ",p" (List.map string_of_int disagree))
               first ) ])
      @
      if stray = [] then []
      else
        [ ( "leader-member",
            Printf.sprintf "quiescent but p%s's leader is outside its quorum"
              (String.concat ",p" (List.map string_of_int stray)) ) ]
  in
  (* An emulated detector's part of the key: its suspicion sets and open
     expectation. *)
  let write_fd key fd =
    K.add_pids_sorted key fd.transient;
    K.add_pids_sorted key fd.permanent;
    match fd.expectation with
    | None -> K.add key 0
    | Some (leader, epoch) ->
      K.add key 1;
      K.add_pid key leader;
      K.add key epoch
  in
  {
    Engine.reset;
    enabled = (fun () -> deliver_choices (net ()) digest @ fire_choices ());
    apply;
    fingerprint =
      identity_key ~n:spec.n (fun key ->
          Array.iter (fun node -> FS.write_key node key) (nodes ());
          Array.iter (write_fd key) (fds ());
          Smr.write_parked key (net ()) digest);
    violations;
    quiescent_violations;
    snapshot =
      Some
        (fun () ->
          let ns = Array.map FS.snapshot (nodes ()) in
          let fd_snap =
            Array.map
              (fun fd ->
                { transient = fd.transient; permanent = fd.permanent; expectation = fd.expectation })
              (fds ())
          in
          let net_snap = Network.snapshot (net ()) in
          fun () ->
            Array.iteri (fun i s -> FS.restore (nodes ()).(i) s) ns;
            Array.iteri
              (fun i s ->
                let fd = (fds ()).(i) in
                fd.transient <- s.transient;
                fd.permanent <- s.permanent;
                fd.expectation <- s.expectation)
              fd_snap;
            Network.restore (net ()) net_snap);
    symmetry = None;
  }

(* ---------------------------------------------------------------- stacks *)

(* Any replica stack, built from its descriptor as [simulate] and chaos
   build it, over a controlled network: parked messages are Deliver
   choices and timers (detector deadlines) are Step choices popping the
   simulator queue. Replay-only: the simulator queue and the monitor's
   accumulated state cannot be rolled back in place. *)
let make_stack (module S : Stack.STACK) variant spec =
  let correct = correct_pids spec in
  let monitor =
    (* One subscription for the system's lifetime; [reset] clears the
       journal and the monitor's accumulated state. The settle window is
       effectively infinite: under frozen virtual time the monitor's aged
       no-suspicion check is meaningless — the instantaneous independence
       check of [selector_violations] replaces it. *)
    Monitor.create
      {
        Monitor.n = spec.n;
        f = spec.f;
        correct;
        quorum_bound = Some (fst (S.quorum_bound ~f:spec.f));
        bound_gauge = None;
        settle = Stime.of_ms 1_000_000_000;
        rejoin_retry_bound = None;
      }
  in
  let requests =
    List.init spec.requests (fun i ->
        { Qs_sim.Smr_cluster.client = 0; rid = i; op = "op" ^ string_of_int i })
  in
  let state = ref None in
  let cluster () = Option.get !state in
  (* Processes ever suspected along the current path (plus the crashed set).
     Detector suspicions can clear, so the union is accumulated here; the
     instance is replay-only, so path accumulation is sound. *)
  let blamed = ref spec.crashes in
  let reset () =
    Metrics.reset ();
    Journal.clear ();
    Journal.set_enabled true;
    Monitor.reset monitor;
    blamed := spec.crashes;
    QS.test_buggy_quorum_size := spec.seeded_bug;
    let c = S.create ~n:spec.n ~f:spec.f ~seed:1L variant in
    Network.set_controlled (S.C.net c) true;
    List.iter (fun p -> S.set_mute c p true) spec.crashes;
    if spec.crashes <> [] then
      ignore (Network.add_filter (S.C.net c) (drop_crashed_filter spec.crashes));
    state := Some c;
    (* Not [S.C.submit]: it schedules a simulator event, which would turn
       request arrival into a Step choice. *)
    List.iter (S.C.handoff c) requests
  in
  {
    Engine.reset;
    enabled =
      (fun () ->
        deliver_choices (S.C.net (cluster ())) S.C.digest
        @
        if Sim.pending_events (S.C.sim (cluster ())) > 0 then
          [ { Engine.choice = Schedule.Step;
              canon = Schedule.choice_to_string Schedule.Step;
              receiver = None } ]
        else []);
    apply =
      (function
      | Schedule.Deliver id -> Network.deliver_now (S.C.net (cluster ())) id
      | Schedule.Step -> Sim.step (S.C.sim (cluster ()))
      | _ -> false);
    fingerprint = identity_key ~n:spec.n (fun key -> S.C.write_key (cluster ()) key);
    violations =
      (fun () ->
        let c = cluster () in
        List.iter
          (fun p ->
            List.iter
              (fun s -> if not (List.mem s !blamed) then blamed := s :: !blamed)
              (Qs_fd.Detector.suspected (S.detector c p)))
          correct;
        Monitor.check_histories monitor ~at:(Stime.to_ms (Sim.now (S.C.sim c)))
          (List.map (fun p -> (p, S.C.history c p)) correct);
        let in_model = within_budget ~f:spec.f !blamed in
        List.filter_map
          (fun (v : Monitor.violation) ->
            (* The monitor's per-epoch accounting has no in-model gate of its
               own; drop its bound findings once the path went out of model. *)
            if (not in_model) && v.check = "quorum-bound" then None
            else Some (v.check, v.detail))
          (Monitor.violations monitor)
        @ List.concat_map
            (fun p ->
              match S.selector c p with
              | Some { Stack.algorithm1 = Some qs; _ } ->
                selector_violations spec ~in_model p qs
              | _ -> [])
            correct);
    quiescent_violations = (fun () -> []);
    snapshot = None;
    symmetry = None;
  }

(* An exception escaping a choice (e.g. a replica rejecting a malformed
   quorum) is a finding, not a checker crash: the path ends in a terminal
   state that reports it as an "exception" violation next to whatever the
   checks still say, so the engine shrinks and prints a replayable schedule
   for it like for any other violation. All such states share one
   fingerprint per exception. *)
let trap_exceptions (system : Engine.system) =
  let raised = ref None in
  let on_raised alive dead () = match !raised with None -> alive () | Some e -> dead e in
  {
    Engine.reset =
      (fun () ->
        raised := None;
        system.reset ());
    enabled = on_raised system.enabled (fun _ -> []);
    apply =
      (fun choice ->
        !raised = None
        &&
        try system.apply choice with
        | (Sys.Break | Out_of_memory) as e -> raise e
        | e ->
          raised := Some (Printexc.to_string e);
          true);
    fingerprint = on_raised system.fingerprint (fun e -> "!" ^ e);
    violations =
      on_raised system.violations (fun e ->
          (try system.violations () with _ -> []) @ [ ("exception", e ^ " escaped a choice") ]);
    quiescent_violations = on_raised system.quiescent_violations (fun _ -> []);
    snapshot =
      Option.map
        (fun snap () ->
          let saved = !raised and restore = snap () in
          fun () ->
            raised := saved;
            restore ())
        system.snapshot;
    symmetry = Option.map (fun canon -> on_raised canon (fun e -> "!" ^ e)) system.symmetry;
  }

let make spec =
  validate spec;
  trap_exceptions
    (match spec.protocol with
     | Quorum -> fst (make_quorum spec)
     | Follower -> make_follower spec
     | Stack name ->
       let stack, variant = stack_of name in
       make_stack stack variant spec)

let make_with_canon_search spec =
  validate spec;
  if spec.protocol <> Quorum then
    invalid_arg "Modelcheck.make_with_canon_search: quorum instance only";
  let system, search = make_quorum spec in
  (trap_exceptions system, search)

(* ----------------------------------------------------------- regressions *)

let parse_kv text =
  let lines = String.split_on_char '\n' text in
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then None
      else
        match String.index_opt line '=' with
        | None -> Some (Error (Printf.sprintf "bad line %S (want key=value)" line))
        | Some i ->
          Some
            (Ok
               ( String.trim (String.sub line 0 i),
                 String.trim (String.sub line (i + 1) (String.length line - i - 1)) )))
    lines

type expectation = Expect_ok | Expect_violation of string

let parse_expect v =
  if v = "ok" then Ok Expect_ok
  else
    match String.index_opt v ':' with
    | Some i when String.sub v 0 i = "violation" ->
      Ok (Expect_violation (String.sub v (i + 1) (String.length v - i - 1)))
    | _ -> Error (Printf.sprintf "bad expect %S (want ok or violation:<check>)" v)

let check_expect expectation (violated : (string * string) list) =
  match expectation with
  | Expect_ok -> (
    match violated with
    | [] -> Ok ()
    | (check, detail) :: _ ->
      Error (Printf.sprintf "expected ok but %s was violated: %s" check detail))
  | Expect_violation name ->
    if List.exists (fun (check, _) -> check = name) violated then Ok ()
    else
      Error
        (Printf.sprintf "expected a %s violation but the replay %s" name
           (match violated with
           | [] -> "was clean"
           | (check, _) :: _ -> "only violated " ^ check))

(* Typed field readers shared by both corpus kinds. *)
let int_field kvs k default =
  match List.assoc_opt k kvs with
  | None -> Ok default
  | Some v -> (
    match int_of_string_opt v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "bad %s=%S" k v))

let int_fields kvs k =
  List.fold_right
    (fun (k', v) acc ->
      Result.bind acc (fun acc ->
          if k' <> k then Ok acc
          else
            match int_of_string_opt v with
            | Some i -> Ok (i :: acc)
            | None -> Error (Printf.sprintf "bad %s=%S" k v)))
    kvs (Ok [])

let run_mc_regression kvs =
  let find k = List.assoc_opt k kvs in
  let ( let* ) = Result.bind in
  let* protocol =
    match find "protocol" with
    | None -> Error "missing protocol="
    | Some v -> (
      match protocol_of_name v with
      | Some p -> Ok p
      | None -> Error (Printf.sprintf "unknown protocol %S" v))
  in
  let d = default_spec protocol in
  let* n = int_field kvs "n" d.n in
  let* f = int_field kvs "f" d.f in
  let* requests = int_field kvs "requests" d.requests in
  let* crashes = int_fields kvs "crash" in
  (* Each amnesia=, equivocate=, churn= or region= line declares one fault:
     its [--inject] text with the [=] read as [:]. *)
  let* faults =
    try
      Ok (List.filter_map (fun (k, v) -> fault_of_string (k ^ ":" ^ v)) kvs)
    with Invalid_argument m -> Error m
  in
  let* injections =
    List.fold_left
      (fun acc v ->
        let* acc = acc in
        match injection_of_string v with
        | Some inj -> Ok (inj :: acc)
        | None -> Error (Printf.sprintf "bad inject=%S (want p:s1,s2)" v))
      (Ok [])
      (List.filter_map (fun (k, v) -> if k = "inject" then Some v else None) kvs)
  in
  let* seeded_bug =
    match find "seeded-bug" with
    | None -> Ok false
    | Some "quorum-size" -> Ok true
    | Some v -> Error (Printf.sprintf "unknown seeded-bug=%S" v)
  in
  let* schedule =
    match find "schedule" with
    | None -> Error "missing schedule="
    | Some v -> ( try Ok (Schedule.of_string v) with Invalid_argument m -> Error m)
  in
  let* expectation =
    match find "expect" with None -> Error "missing expect=" | Some v -> parse_expect v
  in
  let spec =
    { protocol; n; f; injections = List.rev injections; crashes; faults; requests; seeded_bug }
  in
  let* system = try Ok (make spec) with Invalid_argument m -> Error m in
  check_expect expectation (Engine.replay system schedule)

let run_chaos_regression kvs =
  let find k = List.assoc_opt k kvs in
  let ( let* ) = Result.bind in
  let* stack =
    match find "stack" with
    | None -> Error "missing stack="
    | Some v -> (
      match Chaos.of_name v with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "unknown stack %S" v))
  in
  let defaults = Chaos.default_params stack in
  let int_of = int_field kvs in
  let* seed = int_of "seed" 0 in
  let* n = int_of "n" defaults.Chaos.n in
  let* f = int_of "f" defaults.Chaos.f in
  let* horizon_ms = int_of "horizon-ms" (int_of_float (Stime.to_ms defaults.Chaos.horizon)) in
  let* requests = int_of "requests" defaults.Chaos.requests in
  let* spares = int_fields kvs "spare" in
  let* schedule =
    match find "faults" with
    | None -> Ok []
    | Some v -> ( try Ok (Fault.of_string ~n v) with Invalid_argument m -> Error m)
  in
  let* min_proofs = int_of "min-proofs" 0 in
  let* min_reconfigs = int_of "min-reconfigs" 0 in
  let* min_isect_pairs = int_of "min-intersection-pairs" 0 in
  let* policy =
    match find "policy" with
    | None -> Ok defaults.Chaos.policy
    | Some v -> (
      match Qs_core.Selection_policy.of_string v with
      | Some p -> Ok p
      | None -> Error (Printf.sprintf "bad policy=%S" v))
  in
  let* expectation =
    match find "expect" with None -> Error "missing expect=" | Some v -> parse_expect v
  in
  let params =
    {
      defaults with
      Chaos.n;
      f;
      horizon = Stime.of_ms horizon_ms;
      requests;
      spares;
      policy;
    }
  in
  let model = Fault.classify ~n ~f schedule in
  let outcome = Chaos.execute stack ~params ~seed ~model schedule in
  if outcome.Qs_faults.Campaign.checks = 0 then
    Error "vacuous pin: the monitor ran no checks"
  else if outcome.Qs_faults.Campaign.proofs < min_proofs then
    (* Guards commission pins against going vacuous: a schedule drift that
       stops the equivocator from ever being convicted must fail loudly,
       not pass because nothing happened. *)
    Error
      (Printf.sprintf "vacuous pin: %d commission proofs, want at least %d"
         outcome.Qs_faults.Campaign.proofs min_proofs)
  else if outcome.Qs_faults.Campaign.reconfigs < min_reconfigs then
    (* Same guard for churn pins: a drift that stops the joins/leaves from
       ever reconfiguring the member selectors must not pass silently. *)
    Error
      (Printf.sprintf "vacuous pin: %d reconfigurations, want at least %d"
         outcome.Qs_faults.Campaign.reconfigs min_reconfigs)
  else if outcome.Qs_faults.Campaign.isect_pairs < min_isect_pairs then
    (* And for correlated-loss pins: the run must actually have compared
       distinct quorums under the intersection invariant — a drift that
       stops the region loss from ever forcing a quorum change would
       otherwise pass with the invariant never exercised. *)
    Error
      (Printf.sprintf "vacuous pin: %d intersection pairs compared, want at least %d"
         outcome.Qs_faults.Campaign.isect_pairs min_isect_pairs)
  else
    check_expect expectation
      (List.map
         (fun (v : Monitor.violation) -> (v.check, v.detail))
         outcome.Qs_faults.Campaign.violations)

let run_regression ~path =
  let read () =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Ok (really_input_string ic (in_channel_length ic)))
    with Sys_error m -> Error m
  in
  match read () with
  | Error m -> Error m
  | Ok text -> (
    let kvs = parse_kv text in
    match List.find_map (function Error m -> Some m | Ok _ -> None) kvs with
    | Some m -> Error m
    | None -> (
      let kvs = List.filter_map Result.to_option kvs in
      Fun.protect
        ~finally:(fun () -> QS.test_buggy_quorum_size := false)
        (fun () ->
          match List.assoc_opt "kind" kvs with
          | Some "mc" -> run_mc_regression kvs
          | Some "chaos" -> run_chaos_regression kvs
          | Some k -> Error (Printf.sprintf "unknown kind %S" k)
          | None -> Error "missing kind=")))
