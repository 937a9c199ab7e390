module Sim = Qs_sim.Sim
module Stime = Qs_sim.Stime
module Journal = Qs_obs.Journal
module Metrics = Qs_obs.Metrics
module Json = Qs_obs.Json
module Quorum_intersection = Qs_core.Quorum_intersection

type violation = { at : float; check : string; detail : string }

type config = {
  n : int;
  f : int;
  correct : int list;
  quorum_bound : int option;
  bound_gauge : string option;
  settle : Stime.t;
  rejoin_retry_bound : int option;
}

let theorem3 ~f = f * (f + 1)

let theorem9 ~f = (3 * f) + 1

type t = {
  config : config;
  journal : Journal.t;
  mutable subscription : int;
  (* (who, suspect) -> virtual ms the suspicion was raised *)
  suspicions : (int * int, float) Hashtbl.t;
  (* (who, cepoch, epoch) -> quorums issued. Keyed on the (config epoch,
     detector epoch) pair: Theorem-3/9 budgets are re-anchored at every
     reconfiguration, and a restored snapshot from a different config must
     never alias the counters of the current one. *)
  issued : (int * int * int, int) Hashtbl.t;
  (* who -> virtual ms the rejoin started (removed on completion) *)
  recovering : (int, float) Hashtbl.t;
  (* who -> epoch the last completed rejoin fast-forwarded to *)
  rejoin_epoch : (int, int) Hashtbl.t;
  (* culprit -> virtual ms of the first proof of misbehavior against it *)
  proved : (int, float) Hashtbl.t;
  (* Churn state. [members] is the latest [Config_changed] member list —
     the slot->pid translation for every event journaled after it ([None]
     means no reconfiguration ever happened and slots are pids, the static
     harnesses' identity config). All tables above are keyed on universe
     pids via this translation. *)
  mutable members : int array option;
  (* Selector width from the latest [Reconfigured]. Translation is active
     only when it equals the member count — membership-width selectors,
     where slot s is held by members.(s). Width-preserving harnesses (the
     five SMR stacks keep their protocol quorum space at universe size)
     reconfigure with n = universe, and there slots already are pids. *)
  mutable width : int option;
  mutable cepoch_latest : int;
  (* pid -> cepoch its selector last [Reconfigured] to *)
  cepoch_of : (int, int) Hashtbl.t;
  (* pid -> virtual ms it was admitted (removed when its rejoin completes
     or it departs again) *)
  joined : (int, float) Hashtbl.t;
  (* pid -> virtual ms it was evidence-ejected (permanent) *)
  ejected : (int, float) Hashtbl.t;
  (* (cepoch, epoch) -> distinct quorums issued by correct processes, for
     the pairwise intersection invariant. Within one (config, detector)
     epoch all correct processes must agree on the quorum, so any two
     issued quorums should overlap in >= n - 2f processes — a sub-threshold
     pair certifies either disagreement or an undersized quorum. Checked
     incrementally as each quorum arrives. *)
  isect : (int * int, int list list) Hashtbl.t;
  mutable isect_pairs : int;
  mutable isect_min : int; (* max_int until the first pair *)
  mutable violations : violation list; (* reversed *)
  seen : (string, unit) Hashtbl.t; (* violation dedup *)
  mutable checks : int;
  mutable commits : int;
  mutable quorums : int;
  mutable proofs : int;
  mutable forgeries : int;
  mutable reconfigs : int;  (** [Reconfigured] events observed *)
}

let violate t ~at check detail =
  let key = check ^ "|" ^ detail in
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.replace t.seen key ();
    t.violations <- { at; check; detail } :: t.violations
  end

let is_correct t p = List.mem p t.config.correct

(* Translate a journaled slot to the universe pid holding it under the
   latest config. Identity before the first [Config_changed]; out-of-range
   slots (a stale-width event racing a reconfiguration) pass through so the
   stale-config check below still names the sender. *)
let pid_of t slot =
  match (t.members, t.width) with
  | Some m, Some w when w = Array.length m ->
    if slot >= 0 && slot < Array.length m then m.(slot) else slot
  | _ -> slot

let on_quorum_issued t ~at ~who ~epoch ~quorum =
  t.quorums <- t.quorums + 1;
  t.checks <- t.checks + 1;
  (* Cross-epoch invariant: configs are applied synchronously at every
     correct process, so a quorum from a selector still on an older
     membership epoch acts on a retired Π. *)
  let ce = Option.value ~default:0 (Hashtbl.find_opt t.cepoch_of who) in
  if ce <> t.cepoch_latest then
    violate t ~at "stale-config"
      (Printf.sprintf "p%d issued a quorum under cepoch %d (current %d)" who ce
         t.cepoch_latest);
  (* Recovery invariant: between Recovery_started and Recovery_completed
     the process holds only wiped (pre-durable) selection state — issuing a
     quorum from it would be acting on stale information. *)
  if Hashtbl.mem t.recovering who then
    violate t ~at "stale-quorum"
      (Printf.sprintf "p%d issued a quorum mid-rejoin (epoch %d)" who epoch);
  (* Per-epoch assertions are gated on the rejoin epoch: epochs below it
     predate the recovery — the process never observed them with its
     current (post-amnesia) state, so charging it there double-counts its
     previous incarnation. *)
  let pre_rejoin =
    match Hashtbl.find_opt t.rejoin_epoch who with
    | Some re -> epoch < re
    | None -> false
  in
  (match t.config.quorum_bound with
   | None -> ()
   | Some _ when pre_rejoin -> ()
   | Some bound ->
     let k = (who, ce, epoch) in
     let count = 1 + Option.value ~default:0 (Hashtbl.find_opt t.issued k) in
     Hashtbl.replace t.issued k count;
     if count > bound then
       violate t ~at "quorum-bound"
         (Printf.sprintf "p%d issued %d quorums in epoch %d/c%d (bound %d)" who
            count epoch ce bound));
  (* No suspicion: the issued quorum must not contain a pair (i, j) where
     correct i has suspected j since well before the issue (one settle window
     absorbs propagation: a fresh suspicion legitimately races the quorum for
     a round or two). *)
  List.iter
    (fun i ->
      if is_correct t i then
        List.iter
          (fun j ->
            if j <> i then
              match Hashtbl.find_opt t.suspicions (i, j) with
              | Some since when at -. since >= Stime.to_ms t.config.settle ->
                violate t ~at "no-suspicion"
                  (Printf.sprintf
                     "p%d's quorum contains p%d and p%d, but p%d has suspected p%d since %.1fms"
                     who i j i j since)
              | _ -> ())
          quorum)
    quorum;
  (* Evidence invariant: once any process held a proof against j, every
     quorum issued after one settle window (the round the proof needs to
     gossip) must exclude j — permanently, no aging. *)
  List.iter
    (fun j ->
      match Hashtbl.find_opt t.proved j with
      | Some since when at -. since >= Stime.to_ms t.config.settle ->
        violate t ~at "excluded-quorum"
          (Printf.sprintf
             "p%d's quorum contains p%d, proven guilty since %.1fms" who j since)
      | _ -> ())
    quorum;
  (* Churn invariants, windowed like excluded-quorum (the settle window
     absorbs the rejoin round an in-model joiner needs): a joiner must not
     appear in quorums before its bootstrap completes, and an ejected pid
     must never reappear. *)
  List.iter
    (fun j ->
      (match Hashtbl.find_opt t.joined j with
       | Some since when at -. since >= Stime.to_ms t.config.settle ->
         violate t ~at "joiner-quorum"
           (Printf.sprintf
              "p%d's quorum contains p%d, joined at %.1fms with rejoin still incomplete"
              who j since)
       | _ -> ());
      match Hashtbl.find_opt t.ejected j with
      | Some since when at -. since >= Stime.to_ms t.config.settle ->
        violate t ~at "ejected-quorum"
          (Printf.sprintf "p%d's quorum contains p%d, ejected at %.1fms" who j
             since)
      | _ -> ())
    quorum;
  (* Quorum intersection: any two quorums issued under the same
     (config epoch, detector epoch) must overlap in at least n - 2f
     processes. Checked incrementally against the epoch's distinct quorums
     so a violation is timestamped at the issue that created it. *)
  let sorted_q = List.sort_uniq compare quorum in
  let key = (ce, epoch) in
  let bucket = Option.value ~default:[] (Hashtbl.find_opt t.isect key) in
  if not (List.mem sorted_q bucket) then begin
    let width = Option.value ~default:t.config.n t.width in
    let thr = Quorum_intersection.threshold ~n:width ~f:t.config.f in
    List.iter
      (fun other ->
        let o = Quorum_intersection.overlap sorted_q other in
        t.isect_pairs <- t.isect_pairs + 1;
        if o < t.isect_min then t.isect_min <- o;
        if o < thr then
          violate t ~at "quorum-intersection"
            (Printf.sprintf
               "quorums {%s} and {%s} in epoch %d/c%d overlap in %d < %d"
               (String.concat "," (List.map string_of_int sorted_q))
               (String.concat "," (List.map string_of_int other))
               epoch ce o thr))
      bucket;
    Hashtbl.replace t.isect key (sorted_q :: bucket)
  end

let on_proof t ~at culprit =
  t.proofs <- t.proofs + 1;
  t.checks <- t.checks + 1;
  (* Evidence invariant: proofs are sound — only actual misbehavers can
     produce two conflicting validly-signed frames, so a correct process
     must never be convicted (not even by an out-of-model adversary: that
     would mean a forged signature verified). *)
  if is_correct t culprit then
    violate t ~at "correct-excluded"
      (Printf.sprintf "correct p%d was proof-excluded" culprit);
  if not (Hashtbl.mem t.proved culprit) then Hashtbl.replace t.proved culprit at

let handle t entry =
  let at = entry.Journal.at in
  match entry.Journal.event with
  | Journal.Suspicion_raised { who; suspect } ->
    let who = pid_of t who and suspect = pid_of t suspect in
    if not (Hashtbl.mem t.suspicions (who, suspect)) then
      Hashtbl.replace t.suspicions (who, suspect) at
  | Journal.Suspicion_cleared { who; suspect } ->
    Hashtbl.remove t.suspicions (pid_of t who, pid_of t suspect)
  | Journal.Quorum_issued { who; epoch; quorum } ->
    let who = pid_of t who and quorum = List.map (pid_of t) quorum in
    if is_correct t who then on_quorum_issued t ~at ~who ~epoch ~quorum
  | Journal.Commit { who; _ } ->
    if is_correct t (pid_of t who) then t.commits <- t.commits + 1
  | Journal.Recovery_started { who } ->
    let who = pid_of t who in
    Hashtbl.replace t.recovering who at;
    (* The amnesiac forgot its suspicions and its per-epoch issue history
       dies with its previous incarnation (it was faulty during the crash
       window; the theorems bound correct processes). *)
    Hashtbl.iter
      (fun (i, j) _ -> if i = who then Hashtbl.remove t.suspicions (i, j))
      (Hashtbl.copy t.suspicions);
    Hashtbl.iter
      (fun (i, c, e) _ -> if i = who then Hashtbl.remove t.issued (i, c, e))
      (Hashtbl.copy t.issued)
  | Journal.Recovery_completed { who; epoch; retries } ->
    let who = pid_of t who in
    Hashtbl.remove t.recovering who;
    Hashtbl.replace t.rejoin_epoch who epoch;
    (* A completed bootstrap ends the joiner window: from here on it is a
       full member and may appear in quorums. *)
    Hashtbl.remove t.joined who;
    (match t.config.rejoin_retry_bound with
     | Some bound when retries > bound ->
       violate t ~at "rejoin-retries"
         (Printf.sprintf "p%d needed %d rejoin retries (bound %d)" who retries
            bound)
     | _ -> ())
  | Journal.Proof_found { culprit; _ } | Journal.Proof_admitted { culprit; _ } ->
    on_proof t ~at (pid_of t culprit)
  | Journal.Config_changed { cepoch; members } ->
    t.cepoch_latest <- cepoch;
    t.members <- Some (Array.of_list members);
    t.checks <- t.checks + 1;
    (* Ejection is permanent: a conviction must never be readmitted by a
       later config change. *)
    List.iter
      (fun p ->
        match Hashtbl.find_opt t.ejected p with
        | Some since ->
          violate t ~at "ejected-readmitted"
            (Printf.sprintf "p%d, ejected at %.1fms, is in the cepoch-%d config"
               p since cepoch)
        | None -> ())
      members
  | Journal.Reconfigured { who; cepoch; n } ->
    (* [who] is the process's slot in the config it just reconfigured to —
       the coordinating harness announces [Config_changed] before applying
       the change to the engines, so the latest member list translates it. *)
    t.reconfigs <- t.reconfigs + 1;
    t.width <- Some n;
    Hashtbl.replace t.cepoch_of (pid_of t who) cepoch
  | Journal.Member_joined { pid; _ } ->
    (* Universe pid, no translation. Window closes on the joiner's
       [Recovery_completed]. *)
    Hashtbl.replace t.joined pid at
  | Journal.Member_left { pid; _ } -> Hashtbl.remove t.joined pid
  | Journal.Member_ejected { pid; _ } ->
    t.checks <- t.checks + 1;
    Hashtbl.remove t.joined pid;
    if is_correct t pid then
      violate t ~at "correct-excluded"
        (Printf.sprintf "correct p%d was ejected" pid);
    if not (Hashtbl.mem t.ejected pid) then Hashtbl.replace t.ejected pid at
  | Journal.Forgery_rejected { claimed; _ } ->
    t.forgeries <- t.forgeries + 1;
    t.checks <- t.checks + 1;
    (* A forgery is local-only blame: the claimed signer must never end up
       convicted by it. Nothing to record — if a conviction of a correct
       process ever follows, [on_proof] flags it. The event still counts as
       a check: the verify-reject path actually ran. *)
    ignore claimed
  | _ -> ()

let create config =
  let t =
    {
      config;
      journal = Journal.default ();
      subscription = -1;
      suspicions = Hashtbl.create 64;
      issued = Hashtbl.create 64;
      recovering = Hashtbl.create 8;
      rejoin_epoch = Hashtbl.create 8;
      proved = Hashtbl.create 8;
      members = None;
      width = None;
      cepoch_latest = 0;
      cepoch_of = Hashtbl.create 8;
      joined = Hashtbl.create 8;
      ejected = Hashtbl.create 8;
      isect = Hashtbl.create 16;
      isect_pairs = 0;
      isect_min = max_int;
      seen = Hashtbl.create 16;
      violations = [];
      checks = 0;
      commits = 0;
      quorums = 0;
      proofs = 0;
      forgeries = 0;
      reconfigs = 0;
    }
  in
  t.subscription <- Journal.subscribe ~j:t.journal (fun entry -> handle t entry);
  t

let detach t = Journal.unsubscribe ~j:t.journal t.subscription

(* Forget everything observed so far (suspicion onsets, per-epoch issue
   accounting, violations) but stay subscribed. The model checker calls this
   whenever it rolls the world back to an earlier point — without it, issue
   counts from abandoned branches would leak into the next branch and
   fabricate quorum-bound violations. *)
let reset t =
  Hashtbl.reset t.suspicions;
  Hashtbl.reset t.issued;
  Hashtbl.reset t.recovering;
  Hashtbl.reset t.rejoin_epoch;
  Hashtbl.reset t.proved;
  t.members <- None;
  t.width <- None;
  t.cepoch_latest <- 0;
  Hashtbl.reset t.cepoch_of;
  Hashtbl.reset t.joined;
  Hashtbl.reset t.ejected;
  Hashtbl.reset t.isect;
  t.isect_pairs <- 0;
  t.isect_min <- max_int;
  Hashtbl.reset t.seen;
  t.violations <- [];
  t.checks <- 0;
  t.commits <- 0;
  t.quorums <- 0;
  t.proofs <- 0;
  t.forgeries <- 0;
  t.reconfigs <- 0

(* ------------------------------------------------------------------ *)
(* Periodic history probe: prefix consistency + exactly-once, checked online
   so divergence is caught (and timestamped) while the run is in flight. *)

let check_histories t ~at histories =
  t.checks <- t.checks + 1;
  List.iter
    (fun (p, h) ->
      let sorted = List.sort_uniq compare h in
      if List.length sorted <> List.length h then
        violate t ~at "exactly-once"
          (Printf.sprintf "p%d executed a request more than once" p))
    histories;
  let rec pairs = function
    | [] -> ()
    | (p1, h1) :: rest ->
      List.iter
        (fun (p2, h2) ->
          if not (Qs_sim.Smr_cluster.prefix_compatible h1 h2) then
            violate t ~at "prefix-consistency"
              (Printf.sprintf "histories of p%d and p%d diverged" p1 p2))
        rest;
      pairs rest
  in
  pairs histories

let check_bound_gauges t ~at =
  match (t.config.quorum_bound, t.config.bound_gauge) with
  | Some bound, Some gauge ->
    t.checks <- t.checks + 1;
    List.iter
      (fun p ->
        match
          Metrics.find_gauge ~labels:[ ("p", string_of_int p) ] gauge
        with
        | Some v when v > float_of_int bound ->
          violate t ~at "quorum-bound-gauge"
            (Printf.sprintf "%s{p=%d} = %g exceeds bound %d" gauge p v bound)
        | _ -> ())
      t.config.correct
  | _ -> ()

(* End-of-run recovery liveness: in-model there is always at least one
   correct, reachable peer to answer a StateReq, so every rejoin that
   started must have completed by the horizon (retry/backoff absorbs mute
   windows). Only meaningful for in-model schedules — call it under the
   same gating as the liveness check. *)
let check_recovered t ~at =
  t.checks <- t.checks + 1;
  Hashtbl.iter
    (fun who since ->
      violate t ~at "rejoin-stuck"
        (Printf.sprintf "p%d started rejoining at %.1fms and never completed"
           who since))
    t.recovering

let attach_history_probe t ~sim ~every histories =
  let rec tick () =
    let at = Stime.to_ms (Sim.now sim) in
    check_histories t ~at (histories ());
    check_bound_gauges t ~at;
    Sim.schedule sim ~delay:every tick
  in
  Sim.schedule sim ~delay:every tick

(* ------------------------------------------------------------------ *)

let violations t = List.rev t.violations

let checks_run t = t.checks

let commits_observed t = t.commits

let proofs_observed t = t.proofs

let forgeries_observed t = t.forgeries

let reconfigs_observed t = t.reconfigs

let intersection_pairs t = t.isect_pairs

let intersection_min_overlap t =
  if t.isect_pairs = 0 then None else Some t.isect_min

let violation_to_string v =
  Printf.sprintf "[%10.3fms] %-18s %s" v.at v.check v.detail

let violation_to_json v =
  Json.Obj
    [
      ("at_ms", Json.Float v.at);
      ("check", Json.String v.check);
      ("detail", Json.String v.detail);
    ]
