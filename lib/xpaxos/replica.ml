module Sim = Qs_sim.Sim
module Detector = Qs_fd.Detector
module Timeout = Qs_fd.Timeout
module QS = Qs_core.Quorum_select
module Pid = Qs_core.Pid
module Shell = Qs_shell.Shell
module Metrics = Qs_obs.Metrics
module Journal = Qs_obs.Journal

type mode = Enumeration | Quorum_selection

type config = {
  n : int;
  f : int;
  mode : mode;
  initial_timeout : Qs_sim.Stime.t;
  timeout_strategy : Timeout.strategy;
}

let quorum_size c = c.n - c.f

type fault = Honest | Mute | Omit_to of Pid.t list | Equivocate of Pid.t

type phase =
  | Normal
  | Leading_collect of (Pid.t, Xmsg.entry list) Hashtbl.t
  | Awaiting_new_view
  | Passive

type t = {
  config : config;
  sh : (Xmsg.body, Xmsg.t) Shell.t;
  on_execute : slot:int -> Xmsg.request -> unit;
  log : Xlog.t;
  mutable view : int;
  mutable grp : Pid.t list;
  mutable phase : phase;
  mutable fault : fault; (* its link part lives in the shell *)
  mutable view_changes : int;
  mutable detections : Pid.t list;
  proposed : (int * int, int) Hashtbl.t; (* (client, rid) -> slot *)
  awaiting_prepare : (int * int, unit) Hashtbl.t; (* expectation dedupe *)
  mutable exec_cursor : int;
  m_commits : Metrics.counter;
  m_executed : Metrics.counter;
  m_view_changes : Metrics.counter;
  m_detections : Metrics.counter;
  g_view : Metrics.gauge;
}

let me t = Shell.me t.sh

let fd t = Shell.detector t.sh

let set_fault t fault =
  t.fault <- fault;
  Shell.set_fault t.sh
    (match fault with
     | Honest | Equivocate _ -> Shell.Honest
     | Mute -> Shell.Mute
     | Omit_to victims -> Shell.Omit_to victims)

let view t = t.view

let group t = t.grp

let leader t = match t.grp with l :: _ -> l | [] -> assert false

let is_leader t = leader t = me t

let in_group t = List.mem (me t) t.grp

let q t = quorum_size t.config

(* ------------------------------------------------------------------ *)
(* Sending *)

let send t = Shell.send t.sh

let send_group t body = Shell.multicast t.sh t.grp body

(* ------------------------------------------------------------------ *)
(* Expectations (Section V-A) *)

let expect_commit t ~from ~view ~slot =
  Detector.expect (fd t) ~from ~tag:"commit" (fun m ->
      match m.Xmsg.body with
      | Xmsg.Commit { cview; cslot; _ } -> cview = view && cslot = slot
      | _ -> false)

let expect_prepare_slot t ~view ~slot =
  Detector.expect (fd t) ~from:(leader t) ~tag:"prepare-slot" (fun m ->
      match m.Xmsg.body with
      | Xmsg.Prepare sp -> sp.Xmsg.prepare.Xmsg.view = view && sp.Xmsg.prepare.Xmsg.slot = slot
      | _ -> false)

(* Expectations whose fulfilment depends on third parties get longer
   deadlines, ordered so that blame lands where the dependency chain
   actually broke (the same principle as the chain substrate's
   position-scaled timeouts):
   - a COMMIT or a specific PREPARE depends only on its sender: 1x;
   - a VIEW-CHANGE depends on the member's own quorum-selection output
     converging first: 3x;
   - a PREPARE for a fresh request and the NEW-VIEW depend on the whole
     view-change round trip: 4-5x.
   The multiplier applies to the sender's *adapted* timeout, not the
   initial one: on a network slower than the initial timeout, adaptation
   (from late arrivals, including those matching expectations already
   cancelled by a view change) is what eventually stops the suspect /
   reconfigure / suspect churn, and a non-adapting multi-round deadline
   would just restart it. *)

let expect_prepare_request t ~view ~request =
  let from = leader t in
  Detector.expect (fd t) ~from ~tag:"prepare-req"
    ~timeout:(4 * Detector.current_timeout (fd t) from)
    (fun m ->
      match m.Xmsg.body with
      | Xmsg.Prepare sp ->
        sp.Xmsg.prepare.Xmsg.view >= view && sp.Xmsg.prepare.Xmsg.request = request
      | _ -> false)

let expect_view_change t ~from ~view =
  Detector.expect (fd t) ~from ~tag:"view-change"
    ~timeout:(3 * Detector.current_timeout (fd t) from)
    (fun m ->
      match m.Xmsg.body with Xmsg.View_change { vview; _ } -> vview = view | _ -> false)

let expect_new_view t ~from ~view =
  Detector.expect (fd t) ~from ~tag:"new-view"
    ~timeout:(5 * Detector.current_timeout (fd t) from)
    (fun m ->
      match m.Xmsg.body with Xmsg.New_view { nview; _ } -> nview = view | _ -> false)

let detect t culprit =
  t.detections <- culprit :: t.detections;
  Metrics.inc t.m_detections;
  Detector.detected (fd t) culprit

(* ------------------------------------------------------------------ *)
(* Commit and execution *)

let try_execute t =
  let continue = ref true in
  while !continue do
    match Xlog.find t.log t.exec_cursor with
    | Some ({ committed = true; executed = false; sp = Some sp; _ } : Xlog.entry) ->
      Xlog.mark_executed (Xlog.entry t.log t.exec_cursor);
      Metrics.inc t.m_executed;
      t.on_execute ~slot:t.exec_cursor sp.Xmsg.prepare.Xmsg.request;
      t.exec_cursor <- t.exec_cursor + 1
    | _ -> continue := false
  done

let check_commit t (e : Xlog.entry) =
  match e.Xlog.sp with
  | Some sp when not e.Xlog.committed ->
    if List.for_all (fun k -> List.mem k e.Xlog.votes) t.grp then begin
      Xlog.mark_committed t.log e;
      Metrics.inc t.m_commits;
      if Journal.live () then
        Journal.record
          (Journal.Commit { who = me t; slot = sp.Xmsg.prepare.Xmsg.slot });
      try_execute t
    end
  | _ -> ()

(* Adopt a prepare (from the leader directly, or embedded in a COMMIT):
   send our own COMMIT to the group and expect everyone else's. [except]
   lists processes whose COMMIT already arrived — the paper's first
   subtlety: "a COMMIT message from process k may arrive before the PREPARE
   … in this case, no expectation should be issued for process k". *)
let adopt_prepare ?(except = []) t (e : Xlog.entry) sp =
  Xlog.set_prepare t.log e sp;
  Xlog.record_vote e (me t);
  let slot = sp.Xmsg.prepare.Xmsg.slot in
  send_group t (Xmsg.Commit { cview = t.view; cslot = slot; csp = sp });
  List.iter
    (fun k ->
      if k <> me t && not (List.mem k except) then
        expect_commit t ~from:k ~view:t.view ~slot)
    t.grp;
  check_commit t e

(* ------------------------------------------------------------------ *)
(* Normal case handlers *)

let handle_prepare t ~src sp =
  let p = sp.Xmsg.prepare in
  if
    in_group t && src = leader t && p.Xmsg.view = t.view
    && Xmsg.verify_prepare (Shell.auth t.sh) ~leader:src sp
  then begin
    let e = Xlog.entry t.log p.Xmsg.slot in
    match e.Xlog.sp with
    | None -> adopt_prepare t e sp
    | Some stored ->
      let sp' = stored.Xmsg.prepare in
      if sp'.Xmsg.view = p.Xmsg.view && sp'.Xmsg.request <> p.Xmsg.request then
        (* Two validly signed PREPAREs for one view/slot: equivocation. *)
        detect t src
      else if sp'.Xmsg.view < p.Xmsg.view then begin
        (* Re-prepare at a newer view (after view change). *)
        Xlog.clear_votes e;
        adopt_prepare t e sp
      end
  end

let handle_commit t ~src (cview, cslot, csp) =
  if in_group t && List.mem src t.grp && cview = t.view then begin
    let p = csp.Xmsg.prepare in
    if
      (not (Xmsg.verify_prepare (Shell.auth t.sh) ~leader:(leader t) csp))
      || p.Xmsg.view <> cview || p.Xmsg.slot <> cslot
    then detect t src (* malformed COMMIT (Section V-A, second subtlety) *)
    else begin
      let e = Xlog.entry t.log cslot in
      (match e.Xlog.sp with
       | None ->
         (* COMMIT before PREPARE (Fig. 3): adopt the embedded prepare,
            commit ourselves (without expecting the sender's COMMIT again —
            first subtlety), and expect the PREPARE from the leader (third
            subtlety). *)
         adopt_prepare ~except:[ src ] t e csp;
         if src <> leader t then expect_prepare_slot t ~view:cview ~slot:cslot
       | Some stored ->
         let sp' = stored.Xmsg.prepare in
         if sp'.Xmsg.view = p.Xmsg.view && sp'.Xmsg.request <> p.Xmsg.request then
           (* The embedded prepare conflicts with ours: the leader signed
              both, so the leader equivocated. *)
           detect t (leader t));
      (match e.Xlog.sp with
       | Some stored when stored.Xmsg.prepare.Xmsg.request = p.Xmsg.request ->
         Xlog.record_vote e src;
         check_commit t e
       | _ -> ())
    end
  end

(* ------------------------------------------------------------------ *)
(* Proposals *)

let propose_at t ~slot request =
  Hashtbl.replace t.proposed (request.Xmsg.client, request.Xmsg.rid) slot;
  let prepare = { Xmsg.view = t.view; slot; request } in
  let sp = Xmsg.sign_prepare (Shell.auth t.sh) ~leader:(me t) prepare in
  let e = Xlog.entry t.log slot in
  Xlog.set_prepare t.log e sp;
  Xlog.clear_votes e;
  Xlog.record_vote e (me t);
  List.iter
    (fun dst ->
      if dst <> me t then begin
        let body =
          match t.fault with
          | Equivocate victim when dst = victim ->
            let evil = { request with Xmsg.op = "EVIL:" ^ request.Xmsg.op } in
            Xmsg.Prepare
              (Xmsg.sign_prepare (Shell.auth t.sh) ~leader:(me t)
                 { prepare with Xmsg.request = evil })
          | _ -> Xmsg.Prepare sp
        in
        send t ~dst body;
        send t ~dst (Xmsg.Commit { cview = t.view; cslot = slot; csp = sp })
      end)
    t.grp;
  List.iter (fun k -> if k <> me t then expect_commit t ~from:k ~view:t.view ~slot) t.grp;
  check_commit t e

let submit t request =
  if in_group t then begin
    let key = (request.Xmsg.client, request.Xmsg.rid) in
    match Hashtbl.find_opt t.proposed key with
    | Some slot when is_leader t -> begin
      (* Known request: re-propose at the same slot if it went stale. *)
      match Xlog.find t.log slot with
      | Some ({ committed = false; sp = Some sp; _ } : Xlog.entry)
        when sp.Xmsg.prepare.Xmsg.view < t.view ->
        propose_at t ~slot request
      | _ -> ()
    end
    | Some _ -> ()
    | None ->
      if is_leader t then propose_at t ~slot:(Xlog.next_slot t.log) request
      else if not (Hashtbl.mem t.awaiting_prepare key) then begin
        Hashtbl.replace t.awaiting_prepare key ();
        expect_prepare_request t ~view:t.view ~request
      end
  end

(* ------------------------------------------------------------------ *)
(* View change *)

let entry_provenance_ok t (e : Xmsg.entry) =
  let lead = Enumeration.leader ~n:t.config.n ~q:(q t) ~view:e.Xmsg.eview in
  Xmsg.verify_prepare (Shell.auth t.sh) ~leader:lead
    {
      Xmsg.prepare = { Xmsg.view = e.Xmsg.eview; slot = e.Xmsg.eslot; request = e.Xmsg.erequest };
      psig = e.Xmsg.epsig;
    }

let merge_logs lists =
  let best : (int, Xmsg.entry) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun entries ->
      List.iter
        (fun (e : Xmsg.entry) ->
          match Hashtbl.find_opt best e.Xmsg.eslot with
          | None -> Hashtbl.replace best e.Xmsg.eslot e
          | Some cur ->
            let better =
              (* committed entries win; then highest view *)
              (e.Xmsg.ecommitted && not cur.Xmsg.ecommitted)
              || (e.Xmsg.ecommitted = cur.Xmsg.ecommitted && e.Xmsg.eview > cur.Xmsg.eview)
            in
            if better then Hashtbl.replace best e.Xmsg.eslot e)
        entries)
    lists;
  let merged = Hashtbl.fold (fun _ e acc -> e :: acc) best [] in
  List.sort (fun a b -> compare a.Xmsg.eslot b.Xmsg.eslot) merged

let install_committed t (e : Xmsg.entry) =
  let sp =
    {
      Xmsg.prepare = { Xmsg.view = e.Xmsg.eview; slot = e.Xmsg.eslot; request = e.Xmsg.erequest };
      psig = e.Xmsg.epsig;
    }
  in
  Xlog.adopt t.log e ~view:t.view ~sp;
  Hashtbl.replace t.proposed (e.Xmsg.erequest.Xmsg.client, e.Xmsg.erequest.Xmsg.rid)
    e.Xmsg.eslot

let finish_collect t tbl =
  if List.for_all (fun k -> Hashtbl.mem tbl k) t.grp then begin
    let merged = merge_logs (Hashtbl.fold (fun _ es acc -> es :: acc) tbl []) in
    send_group t (Xmsg.New_view { nview = t.view; nlog = merged });
    t.phase <- Normal;
    List.iter
      (fun (e : Xmsg.entry) ->
        if e.Xmsg.ecommitted then install_committed t e
        else propose_at t ~slot:e.Xmsg.eslot e.Xmsg.erequest)
      merged;
    try_execute t
  end

let rec move_to_view t v =
  if v > t.view then begin
    t.view <- v;
    t.grp <- Enumeration.group ~n:t.config.n ~q:(q t) ~view:v;
    t.view_changes <- t.view_changes + 1;
    Metrics.inc t.m_view_changes;
    Metrics.set t.g_view (float_of_int v);
    if Journal.live () then
      Journal.record (Journal.View_change { who = me t; view = v; group = t.grp });
    Hashtbl.reset t.awaiting_prepare;
    Detector.cancel_all (fd t); (* Section V-B: expectations no longer valid *)
    Logs.debug ~src:Qs_stdx.Debug.xpaxos (fun m ->
        m "p%d VIEW %d group %s" (me t + 1) v (Pid.set_to_string t.grp));
    (match t.config.mode with
     | Enumeration ->
       (* Gossip the move: re-broadcasting the SUSPECT that justifies view v
          keeps correct processes' views synchronized even when the message
          that moved us came over a faulty process's selective links. *)
       Shell.broadcast t.sh (Xmsg.Suspect { sview = v - 1 });
       (* Permanent detections survive cancel_all but produce no fresh
          ⟨SUSPECTED⟩ event; if the new group contains one, skip it directly
          (enumeration mode's equivalent of "suspect all quorums ordered
          before a clean one"). Scheduled to keep the view-skip iterative. *)
       if List.exists (fun s -> List.mem s t.grp) (Detector.suspected (fd t)) then
         Sim.schedule (Shell.sim t.sh) ~delay:0 (fun () ->
             if t.view = v then move_to_view t (v + 1))
     | Quorum_selection -> ());
    if not (in_group t) then t.phase <- Passive
    else begin
      let entries = Xlog.to_entries t.log in
      if is_leader t then begin
        let tbl = Hashtbl.create 8 in
        Hashtbl.replace tbl (me t) entries;
        t.phase <- Leading_collect tbl;
        List.iter (fun k -> if k <> me t then expect_view_change t ~from:k ~view:v) t.grp;
        finish_collect t tbl (* singleton group commits immediately *)
      end
      else begin
        t.phase <- Awaiting_new_view;
        send t ~dst:(leader t) (Xmsg.View_change { vview = v; vlog = entries });
        expect_new_view t ~from:(leader t) ~view:v
      end
    end
  end

let handle_view_change t ~src (vview, vlog) =
  if vview > t.view then move_to_view t vview;
  if vview = t.view && is_leader t then
    match t.phase with
    | Leading_collect tbl when List.mem src t.grp && not (Hashtbl.mem tbl src) ->
      if List.for_all (entry_provenance_ok t) vlog then begin
        Hashtbl.replace tbl src vlog;
        finish_collect t tbl
      end
      else detect t src
    | _ -> ()

let handle_new_view t ~src (nview, nlog) =
  if nview > t.view then move_to_view t nview;
  if nview = t.view && src = leader t && in_group t && not (is_leader t) then begin
    if List.for_all (entry_provenance_ok t) nlog then begin
      List.iter (fun (e : Xmsg.entry) -> if e.Xmsg.ecommitted then install_committed t e) nlog;
      t.phase <- Normal;
      try_execute t
    end
    else detect t src
  end

(* ------------------------------------------------------------------ *)
(* Suspicion plumbing *)

(* Enumeration mode only: under Quorum_selection Algorithm 1 consumes
   suspicions. move_to_view broadcasts the justifying SUSPECT itself. *)
let on_suspected t suspects =
  if List.exists (fun s -> List.mem s t.grp) suspects then move_to_view t (t.view + 1)

let on_qs_quorum t quorum =
  let target =
    Enumeration.view_for ~n:t.config.n ~q:(q t) ~at_least:t.view ~group:quorum
  in
  if target > t.view then move_to_view t target

(* ------------------------------------------------------------------ *)
(* Receive path *)

let process t ~src msg =
  match msg.Xmsg.body with
  | Xmsg.Prepare sp -> handle_prepare t ~src sp
  | Xmsg.Commit { cview; cslot; csp } -> handle_commit t ~src (cview, cslot, csp)
  | Xmsg.Suspect { sview } ->
    if t.config.mode = Enumeration && sview >= t.view then move_to_view t (sview + 1)
  | Xmsg.View_change { vview; vlog } -> handle_view_change t ~src (vview, vlog)
  | Xmsg.New_view { nview; nlog } -> handle_new_view t ~src (nview, nlog)
  | Xmsg.Qsel update -> Shell.update t.sh update

let receive t = Shell.receive t.sh

(* ------------------------------------------------------------------ *)

let create config ~me ~auth ~sim ~net_send ?(on_execute = fun ~slot:_ _ -> ()) () =
  if config.n <= 0 || config.f < 0 || config.n - config.f <= config.f then
    invalid_arg "Replica.create: need n - f > f";
  let sh =
    Shell.create ~who:"Replica.create" ~n:config.n ~me ~auth ~sim ~net_send ~seal:Xmsg.seal ~verify:Xmsg.verify
      ~sender:(fun m -> m.Xmsg.sender)
      ~initial_timeout:config.initial_timeout config.timeout_strategy
  in
  let labels = [ ("p", string_of_int me) ] in
  let t =
    {
      config;
      sh;
      on_execute;
      log = Xlog.create ();
      view = 0;
      grp = Enumeration.group ~n:config.n ~q:(quorum_size config) ~view:0;
      phase = Normal;
      fault = Honest;
      view_changes = 0;
      detections = [];
      proposed = Hashtbl.create 64;
      awaiting_prepare = Hashtbl.create 64;
      exec_cursor = 0;
      m_commits = Metrics.counter ~labels "xp_commits_total";
      m_executed = Metrics.counter ~labels "xp_executed_total";
      m_view_changes = Metrics.counter ~labels "xp_view_changes_total";
      m_detections = Metrics.counter ~labels "xp_detections_total";
      g_view = Metrics.gauge ~labels "xp_view";
    }
  in
  Shell.start sh ~deliver:(process t)
    (match config.mode with
     | Enumeration -> Shell.Protocol (on_suspected t)
     | Quorum_selection ->
       Shell.Select
         { f = config.f; wrap = (fun u -> Xmsg.Qsel u); on_quorum = on_qs_quorum t });
  t

let executed t = Xlog.executed_prefix t.log

let committed_count t = Xlog.committed_count t.log

let view_changes t = t.view_changes

let detector t = fd t

let detections t = t.detections

let quorum_selector t = Shell.selector t.sh

let timeouts t = Shell.timeouts t.sh

(* ------------------------------------------------------------------ *)
(* Crash-recovery (amnesia) *)

let export_log_prefix t = Xlog.committed_entries t.log

let log t = t.log

(* Committed entries only, with the same provenance check a view-change
   recipient applies: the original leader-of-[eview] signature must verify,
   so a corrupted durable snapshot or a fabricated StateResp supplement
   cannot smuggle in an uncommitted request. *)
let import_log_prefix t entries =
  List.iter
    (fun (e : Xmsg.entry) ->
      if e.Xmsg.ecommitted && entry_provenance_ok t e then install_committed t e)
    entries;
  try_execute t

let catch_up_view t ~view = if view > t.view then move_to_view t view

(* Wipe everything volatile and restart at the durable [view]: the log is
   emptied (the durable committed prefix comes back via
   [import_log_prefix]), proposals and expectation dedup die with it, the
   detector forgets suspicions (keeping its adapted timeouts — the durable
   part) and the embedded selector goes dormant until a rejoin supplies
   recovered state. *)
let amnesia_restart t ~view =
  if view < 0 then invalid_arg "Replica.amnesia_restart: negative view";
  Xlog.clear t.log;
  Hashtbl.reset t.proposed;
  Hashtbl.reset t.awaiting_prepare;
  t.exec_cursor <- 0;
  t.detections <- [];
  t.view <- view;
  t.grp <- Enumeration.group ~n:t.config.n ~q:(q t) ~view;
  t.phase <- (if in_group t then Normal else Passive);
  Metrics.set t.g_view (float_of_int view);
  Detector.amnesia (fd t);
  match quorum_selector t with Some qsel -> QS.amnesia qsel | None -> ()

(* The model checker's key for this replica: the view/group/phase machine,
   the log (prepares, votes, commit/execute marks), the execution cursor
   and the permanent detections, then the shell's part. *)
let write_key t key =
  let module K = Qs_stdx.State_key in
  K.add key t.view;
  K.add_pids key t.grp;
  K.add key t.exec_cursor;
  (match t.phase with
   | Normal -> K.add key 0
   | Passive -> K.add key 1
   | Awaiting_new_view -> K.add key 2
   | Leading_collect tbl ->
     K.add key 3;
     K.add_pids_sorted key (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []));
  for slot = 0 to Xlog.max_slot t.log do
    match Xlog.find t.log slot with
    | None -> ()
    | Some e ->
      K.add key slot;
      (match e.Xlog.sp with
       | None -> K.add key 0
       | Some { Xmsg.prepare = p; _ } ->
         K.add key 1;
         K.add key p.Xmsg.view;
         Qs_sim.Smr_cluster.write_id key p.Xmsg.request;
         K.add_string key p.Xmsg.request.Xmsg.op);
      K.add_pids_sorted key e.Xlog.votes;
      K.add_bool key e.Xlog.committed;
      K.add_bool key e.Xlog.executed
  done;
  K.add key (-1);
  K.add_pids_sorted key (List.sort_uniq compare t.detections);
  Shell.write_key t.sh key
