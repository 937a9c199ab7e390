module Stime = Qs_sim.Stime
module Sim = Qs_sim.Sim
module Network = Qs_sim.Network
module Detector = Qs_fd.Detector
module QS = Qs_core.Quorum_select
module Suspicion_matrix = Qs_core.Suspicion_matrix
module Metrics = Qs_obs.Metrics
module Journal = Qs_obs.Journal
module Fault = Qs_faults.Fault
module Injector = Qs_faults.Injector
module Monitor = Qs_faults.Monitor
module Campaign = Qs_faults.Campaign
module Codec = Qs_recovery.Codec
module Rejoin = Qs_recovery.Rejoin
module Evidence = Qs_evidence.Evidence
module Membership = Qs_membership.Membership
module Mconfig = Qs_membership.Config
module Auth = Qs_crypto.Auth

let ms = Stime.of_ms

type stack = Xpaxos_enum | Xpaxos_qs | Pbft | Minbft | Chain | Star

let all = [ Xpaxos_enum; Xpaxos_qs; Pbft; Minbft; Chain; Star ]

let name = function
  | Xpaxos_enum -> "xpaxos-enum"
  | Xpaxos_qs -> "xpaxos-qs"
  | Pbft -> "pbft"
  | Minbft -> "minbft"
  | Chain -> "chain"
  | Star -> "star"

let of_name s =
  List.find_opt (fun st -> name st = String.lowercase_ascii s) all

type params = {
  n : int;
  f : int;
  horizon : Stime.t;
  requests : int;
  resubmit_every : Stime.t;
  probe_every : Stime.t;
  spares : int list;
  policy : Qs_core.Selection_policy.t;
}

let descriptor = function
  | Xpaxos_enum -> (Stack.xpaxos, Stack.Baseline)
  | Xpaxos_qs -> (Stack.xpaxos, Stack.Selecting)
  | Pbft -> (Stack.pbft, Stack.Selecting)
  | Minbft -> (Stack.minbft, Stack.Selecting)
  | Chain -> (Stack.chain, Stack.Selecting)
  | Star -> (Stack.star, Stack.Selecting)

let default_params stack =
  let (module S : Stack.STACK), _ = descriptor stack in
  {
    n = S.default_n ~f:2;
    f = 2;
    horizon = ms 10_000;
    requests = (match stack with Xpaxos_enum | Xpaxos_qs -> 4 | _ -> 3);
    resubmit_every = ms 150;
    probe_every = ms 250;
    spares = [];
    policy = Qs_core.Selection_policy.default;
  }

(* Churn campaigns run one universe size up with one spare (the top pid,
   outside the initial membership) and a budget of f = 3 so a join, a leave
   and a Byzantine-then-ejected process fit in-model together. Each family
   keeps its resilience inequality: 2f+1 <= n for XPaxos, 3f+1 <= n for
   PBFT/chain, 3f < n for star's follower selection — and MinBFT's USIG
   replica count is pinned at exactly n = 2f+1, so its universe grows by
   bumping f with it. *)
let churn_params stack =
  let n, f =
    match stack with
    | Xpaxos_enum | Xpaxos_qs -> (8, 3)
    | Minbft -> (9, 4)
    | Pbft | Chain | Star -> (10, 3)
  in
  { (default_params stack) with n; f; spares = [ n - 1 ] }

(* The correlated-fault (and DiversityCapped) topology of a parameter set:
   enough balanced contiguous regions that no region exceeds the failure
   budget — so a whole-region loss can stay in-model. Derived, not stored:
   every caller of [campaign ~correlated] and every [--policy diverse] run
   sees the same labels for the same (n, f). *)
let topology_for params =
  let k = max 2 ((params.n + params.f - 1) / max 1 params.f) in
  Qs_core.Topology.blocks ~n:params.n
    (List.init k (Printf.sprintf "r%d"))

let regions_for params =
  let topo = topology_for params in
  List.map
    (fun l -> (l, Qs_core.Topology.members topo l))
    (Qs_core.Topology.labels topo)

(* ------------------------------------------------------------------ *)
(* Recovery plane.

   Every stack gets a second network on the same simulation carrying only
   {!Rejoin} traffic, one engine per process, with low-rate anti-entropy
   gossip running throughout. Fault schedules are installed on BOTH planes
   (the rejoin-plane injector first, so at a shared phase-stop tick its
   filters are already lifted when the amnesia hook broadcasts StateReq) —
   a crashed process cannot serve state, and partitions cut the recovery
   plane too. *)

let rejoin_max_retries = (Rejoin.default_config ~n:2).Rejoin.max_retries

(* With delta gossip attached, one tick in [delta_full_every] still pushes
   the full matrix — the anti-entropy backstop for anything the version
   bookkeeping cannot see. *)
let delta_full_every = 8

(* Delta-gossip engines wrap the selector's live matrix directly; the merge
   callback is the dormancy-respecting re-evaluation, never [absorb]. *)
let selector_delta (s : Stack.selector) p =
  (Qs_core.Delta.create ~me:p (s.matrix ()), s.reevaluate)

(* The rejoin payload and amnesia wipe of a stack whose durable state is
   just the selection CRDT (its SMR log is documented durable-by-default;
   only XPaxos models deep log durability, see {!Stack.durable}). *)
let selector_durable ~n ~sel ~detector =
  {
    Stack.collect =
      (fun p ->
        let matrix, epoch =
          match sel p with
          | Some (s : Stack.selector) -> (s.matrix (), s.epoch ())
          | None -> (Suspicion_matrix.create n, 1)
        in
        { Rejoin.matrix = Codec.encode_matrix matrix; epoch; extra = "" });
    adopt =
      (fun p ~matrix ~epoch ~extra:_ ->
        match sel p with Some s -> s.absorb ~matrix ~epoch | None -> ());
    wipe =
      (fun p ->
        (match sel p with Some s -> s.amnesia () | None -> ());
        Detector.amnesia (detector p);
        None);
  }

(* The injector's CrashAmnesia recovery hook: wipe volatile state (which may
   return a durable snapshot), drop in-flight messages addressed to the dead
   incarnation on both planes, and start the rejoin round. The durable
   payload goes in as a self State_push — buffered with the peers' responses
   and merged at completion. *)
let attach_recovery ~sim ~n ~net ~sel ~(durable : Stack.durable) =
  let rnet = Network.create ~sim ~n ~delay:(Network.Fixed (ms 1)) ~fifo:true () in
  let config =
    { (Rejoin.default_config ~n) with Rejoin.gossip_every = Some (ms 1000) }
  in
  let nodes =
    Array.init n (fun me ->
        let node =
          Rejoin.create ~sim config ~me
            ~collect:(fun () -> durable.collect me)
            ~adopt:(durable.adopt me)
            ~send:(fun ~dst msg -> Network.send rnet ~src:me ~dst msg)
            ()
        in
        Option.iter
          (fun s ->
            let engine, on_merge = selector_delta s me in
            Rejoin.set_delta node engine ~on_merge ~full_every:delta_full_every)
          (sel me);
        node)
  in
  Array.iteri
    (fun i node ->
      Network.set_handler rnet i (fun ~src msg -> Rejoin.handle node ~src msg))
    nodes;
  Array.iter Rejoin.start_gossip nodes;
  let amnesia p =
    let snapshot = durable.wipe p in
    ignore (Network.drop_pending_to net p : int);
    ignore (Network.drop_pending_to rnet p : int);
    Rejoin.start nodes.(p);
    match snapshot with
    | Some payload -> Rejoin.handle nodes.(p) ~src:p (Rejoin.State_push { payload })
    | None -> ()
  in
  (rnet, nodes, amnesia)

(* ------------------------------------------------------------------ *)
(* Churn plane.

   The five SMR stacks keep their protocol quorum space at universe size
   (views are combinatorial ranks over n, commit groups are pid sets), so
   membership changes are applied {e width-preserving}: the coordinating
   {!Membership} engine tracks the true Π over universe pids, and every
   config change reconfigures each member's selector in place — same n,
   identity slot remap, membership epoch bumped — which re-anchors the
   Theorem-3/9 budgets and refreshes the fingerprints, while the member
   set itself is enforced through the mute plane (spares and departed
   processes are silent, so detectors keep them out of quorums) and the
   rejoin plane (a joiner bootstraps dormant, exactly like an amnesia
   recovery). Evidence convictions propose the ejection. Configs are
   applied synchronously at every process — config agreement rides on the
   BFT layer above, which is the same stance the mc harness takes. *)

type churn = {
  cjoin : int -> unit;
  cleave : int -> unit;
  ceject : int -> unit;
}

let no_churn = { cjoin = ignore; cleave = ignore; ceject = ignore }

let attach_churn ~n ~f ~spares ?min_n ~set_mute ~rnodes ~sel ~amnesia () =
  if spares = [] then no_churn
  else begin
    let members =
      List.filter (fun p -> not (List.mem p spares)) (List.init n Fun.id)
    in
    let init = Mconfig.bootstrap members in
    (* Floor: the width-preserving selectors keep issuing quorums of
       q = n - f slots, so at least that many live members must remain —
       plus the generic 2f+1 membership quorum unless the stack overrides
       it (MinBFT's USIG universe is pinned at 2f+1, where that term would
       equal n and freeze the membership; its hardware counters already
       stand in for the extra replicas). *)
    let min_n = Option.value min_n ~default:(max ((2 * f) + 1) (n - f)) in
    let eng = Membership.create ~me:0 ~f ~min_n init in
    Membership.announce_bootstrap init;
    List.iter (fun p -> set_mute p true) spares;
    let apply change =
      match Membership.validate eng change with
      | Error _ -> false
      | Ok () ->
        ignore (Membership.handle_change eng change : Membership.action);
        let fresh = Membership.config eng in
        (* Announce before reconfiguring: the monitor translates the
           [Reconfigured] events through the latest member list. *)
        Membership.announce fresh change;
        let cepoch = Mconfig.cepoch fresh in
        List.iter
          (fun q ->
            match sel q with
            | Some s ->
              s.Stack.reconfigure { QS.n; f } ~me:q ~cepoch;
              (* The selector's matrix is a fresh object after the remap;
                 re-wrap the delta-gossip engine around it. *)
              let engine, on_merge = selector_delta s q in
              Rejoin.set_delta rnodes.(q) engine ~on_merge ~full_every:delta_full_every
            | None -> ())
          (Mconfig.members fresh);
        true
    in
    let cjoin p =
      if apply (Mconfig.Join p) then begin
        set_mute p false;
        (* Bootstrap exactly like an amnesia recovery: wipe to blank
           dormant selection state and fetch the cluster's state through
           the rejoin plane — no quorum until [Recovery_completed]. *)
        amnesia p
      end
    in
    let cleave p =
      if Mconfig.mem (Membership.config eng) p then begin
        (* Graceful drain: one anti-entropy handoff push before the
           removal, then permanent silence. *)
        Rejoin.push_now rnodes.(p);
        if apply (Mconfig.Leave p) then set_mute p true
      end
    in
    let ceject c =
      (* Fired on every store's conviction; the membership validation
         dedups — after the first ejection [c] is no longer a member. *)
      if Mconfig.mem (Membership.config eng) c && apply (Mconfig.Eject c) then
        set_mute c true
    in
    { cjoin; cleave; ceject }
  end

(* ------------------------------------------------------------------ *)
(* Commission-fault (evidence) plane.

   Every stack also gets one {!Evidence} store per process, fed from a
   tracer on the main network: each delivered frame carrying a suspicion
   row is handed to the receiver's store, which verifies the owner's tag,
   quarantines forgery channels, and turns two conflicting validly-signed
   rows from one owner into a transferable proof. Proofs gossip to the
   other stores on a one-tick side channel (prompt by construction —
   exclusion promptness is the monitor's [excluded-quorum] settle window,
   not what is under test), and each store's first conviction of a culprit
   feeds the process's quorum selector via [exclude].

   The clusters derive their key directories from the fixed default master
   secret, so [Auth.create n] here yields the same keys — the hooks can
   sign as the Byzantine source without new cluster accessors. *)

let attach_evidence ~sim ~net ~n ~auth ~extract ~exclude ~eject =
  let stores = Array.init n (fun me -> Evidence.create ~auth ~me ~n) in
  Array.iteri
    (fun me store ->
      Evidence.set_on_exclude store (fun culprit ->
          exclude me culprit;
          (* With churn armed, a conviction also proposes the config change
             permanently removing the culprit (deduped by the membership
             validation). *)
          eject culprit))
    stores;
  let gossip ~from proof =
    for q = 0 to n - 1 do
      if q <> from then
        Sim.schedule sim ~delay:(ms 1) (fun () ->
            ignore (Evidence.admit stores.(q) proof : bool))
    done
  in
  Network.set_tracer net (fun ~kind ~now:_ ~src ~dst m ->
      match kind with
      | Network.Delivered -> (
        match extract m with
        | Some frame -> (
          match Evidence.observe stores.(dst) ~src frame with
          | Evidence.Proof p -> gossip ~from:dst p
          | Evidence.Ok | Evidence.Forged -> ())
        | None -> ())
      | Network.Send | Network.Dropped -> ());
  stores

(* What one simulated run must expose to the generic driver: after faults
   are installed and requests submitted, the monitor needs the executed
   histories of the unblamed processes, and liveness needs the commit
   census. *)
type instance = {
  sim : Sim.t;
  set_policy : Qs_core.Selection_policy.t -> unit;
  install : Fault.schedule -> unit;
  submit_all : unit -> unit;
  committed : unit -> int;
  histories : int list -> (int * (int * int) list) list;
  evidence : Evidence.t array;
}

let make_instance stack ~params ~seed =
  let (module S : Stack.STACK), variant = descriptor stack in
  let n = params.n and f = params.f in
  let ops = List.init params.requests (fun i -> Printf.sprintf "op%d" i) in
  let c = S.create ~n ~f ~seed:(Int64.of_int seed) variant in
  let sim = S.C.sim c and net = S.C.net c in
  let sel = S.selector c in
  let set_mute = S.set_mute c in
  let durable =
    match S.deep_durability with
    | Some attach -> attach c
    | None -> selector_durable ~n ~sel ~detector:(S.detector c)
  in
  let rnet, rnodes, amnesia = attach_recovery ~sim ~n ~net ~sel ~durable in
  let auth = Auth.create n in
  let hooks = S.commission auth ~n in
  let churn = ref no_churn in
  let evidence =
    attach_evidence ~sim ~net ~n ~auth ~extract:hooks.extract
      ~exclude:(fun me culprit -> Option.iter (fun s -> s.Stack.exclude culprit) (sel me))
      ~eject:(fun culprit -> !churn.ceject culprit)
  in
  churn :=
    attach_churn ~n ~f ~spares:params.spares ?min_n:(S.churn_min_n ~n ~f) ~set_mute
      ~rnodes ~sel ~amnesia ();
  let requests = ref [] in
  {
    sim;
    (* The same policy at every selector — policies are static config, and
       Agreement relies on all correct processes selecting through the
       same function. *)
    set_policy =
      (fun pol ->
        for p = 0 to n - 1 do
          Option.iter (fun s -> s.Stack.set_policy pol) (sel p)
        done);
    install =
      (fun schedule ->
        ignore (Injector.install ~net:rnet schedule);
        ignore
          (Injector.install ~net ~set_mute ~amnesia ~equivocate:hooks.equivocate
             ~slander:hooks.slander ~tamper:hooks.tamper
             ~join:(fun p -> !churn.cjoin p)
             ~leave:(fun p -> !churn.cleave p)
             schedule));
    submit_all =
      (fun () ->
        requests := List.map (S.C.submit c ~resubmit_every:params.resubmit_every) ops);
    committed = (fun () -> List.length (List.filter (S.C.is_committed c) !requests));
    histories = (fun correct -> List.map (fun p -> (p, S.C.history c p)) correct);
    evidence;
  }

(* Run one schedule on one stack with the online monitor attached. Pure in
   (seed, schedule): the same pair always yields the same outcome, which the
   campaign's replay and shrinking rely on. *)
let execute_with_evidence stack ?(params = default_params stack) ~seed ~model
    schedule : Campaign.exec_outcome * Evidence.t array =
  let n = params.n and f = params.f in
  let blamed = Fault.blamed ~n schedule in
  let correct =
    List.filter (fun p -> not (List.mem p blamed)) (List.init n Fun.id)
  in
  let in_model = match model with Fault.In_model _ -> true | Fault.Out_of_model _ -> false in
  Metrics.reset ();
  let was_live = Journal.live () in
  Journal.clear ();
  Journal.set_enabled true;
  let inst = make_instance stack ~params ~seed in
  (* Non-default policies install on every selector before any fault or
     request fires; the default keeps the historical byte-exact path. *)
  if not (Qs_core.Selection_policy.is_default params.policy) then
    inst.set_policy params.policy;
  let bound, gauge =
    let (module S : Stack.STACK), _ = descriptor stack in
    S.quorum_bound ~f
  in
  let monitor =
    Monitor.create
      {
        Monitor.n;
        f;
        correct;
        (* The Theorem-3/9 bounds and the no-suspicion property assume the
           model's failure budget; out-of-model schedules only owe core
           SMR safety (prefix consistency, exactly-once). *)
        quorum_bound = (if in_model then Some bound else None);
        bound_gauge = (if in_model then Some gauge else None);
        settle = ms 50;
        (* In-model there is always a correct reachable peer, so a rejoin
           must finish within the engine's own retry budget. *)
        rejoin_retry_bound = (if in_model then Some rejoin_max_retries else None);
      }
  in
  Monitor.attach_history_probe monitor ~sim:inst.sim ~every:params.probe_every
    (fun () -> inst.histories correct);
  inst.install schedule;
  inst.submit_all ();
  Sim.run ~until:params.horizon inst.sim;
  (* Recovery liveness owes completion only in-model (same gating as the
     termination check below). *)
  if in_model then
    Monitor.check_recovered monitor ~at:(Stime.to_ms (Sim.now inst.sim));
  let committed = inst.committed () in
  let liveness =
    if in_model && committed < params.requests then
      [
        Printf.sprintf "termination: only %d/%d requests committed by %s" committed
          params.requests
          (Format.asprintf "%a" Stime.pp params.horizon);
      ]
    else []
  in
  Monitor.detach monitor;
  Journal.set_enabled was_live;
  ( {
      Campaign.violations = Monitor.violations monitor;
      liveness;
      committed;
      submitted = params.requests;
      checks = Monitor.checks_run monitor;
      proofs = Monitor.proofs_observed monitor;
      forgeries = Monitor.forgeries_observed monitor;
      reconfigs = Monitor.reconfigs_observed monitor;
      isect_pairs = Monitor.intersection_pairs monitor;
      isect_min_overlap = Monitor.intersection_min_overlap monitor;
    },
    inst.evidence )

let execute stack ?params ~seed ~model schedule =
  fst (execute_with_evidence stack ?params ~seed ~model schedule)

let campaign stack ?params ?(out_of_model = false) ?(amnesia = false)
    ?(byz = false) ?(churn = false) ?(correlated = false) ?(runs = 20)
    ?(jobs = 1) ~seed () =
  let params =
    match params with
    | Some p -> p
    | None -> if churn then churn_params stack else default_params stack
  in
  let profile =
    let base = Fault.default_profile ~horizon:params.horizon in
    (* p_amnesia = 0 keeps the random stream byte-identical to pre-amnesia
       pinned seeds; with the flag, half the generated crashes lose their
       volatile state and must rejoin. *)
    let base = if amnesia then { base with Fault.p_amnesia = 0.5 } else base in
    (* Same guard for the commission knobs: off by default, and with --byz a
       faulty process draws one active Byzantine behavior before falling
       back to the benign link mix. *)
    let base =
      if byz then
        {
          base with
          Fault.p_equivocate = 0.35;
          p_slander = 0.3;
          p_tamper = 0.25;
          p_replay = 0.25;
        }
      else base
    in
    (* Churn: spares may join (within the blame budget) and faulty members
       may leave; both zero by default, keeping pinned streams intact. *)
    let base =
      if churn then
        { base with Fault.p_join = 0.7; p_leave = 0.35; spares = params.spares }
      else base
    in
    (* Correlated faults: whole fault domains (derived from the same
       topology [--policy diverse] uses) partition, power off or go gray
       together — emitted only while the schedule's exact blame set fits
       the budget, and guarded so pinned streams stay byte-identical when
       off. *)
    if correlated then
      {
        base with
        Fault.p_region = 0.4;
        p_rack = 0.3;
        p_gray_region = 0.3;
        regions = regions_for params;
      }
    else base
  in
  let gen rng =
    let s =
      if out_of_model then Fault.gen_wild rng ~n:params.n ~f:params.f ~profile ()
      else Fault.gen rng ~n:params.n ~f:params.f ~profile ()
    in
    if not churn then s
    else begin
      (* A spare without a join stays muted the whole run — equivalent to a
         full-run crash, which the classifier must blame or the termination
         and budget accounting would charge a phantom correct process. *)
      let joined p =
        List.exists (fun ph -> ph.Fault.what = Fault.Join p) s
      in
      s
      @ List.filter_map
          (fun p -> if joined p then None else Some (Fault.at (Fault.Crash p)))
          params.spares
    end
  in
  Campaign.run ~jobs ~seed ~runs ~gen
    ~classify:(Fault.classify ~n:params.n ~f:params.f)
    ~execute:(fun ~seed ~model schedule -> execute stack ~params ~seed ~model schedule)
    ()
