module Detector = Qs_fd.Detector
module Timeout = Qs_fd.Timeout
module Pid = Qs_core.Pid
module Shell = Qs_shell.Shell

type participation = Full | Selected

type config = {
  n : int;
  f : int;
  participation : participation;
  initial_timeout : Qs_sim.Stime.t;
  timeout_strategy : Timeout.strategy;
}

type fault = Shell.fault = Honest | Mute | Omit_to of Pid.t list

type slot_state = {
  mutable spp : Pmsg.signed_pre_prepare option;
  mutable prepares : Pid.t list;  (* matching digests only *)
  mutable commits : Pid.t list;
  mutable prepared : bool;
  mutable committed : bool;
  mutable executed : bool;
}

type phase = Normal | Collecting of (Pid.t, Pmsg.entry list) Hashtbl.t | Awaiting_nv

type t = {
  config : config;
  sh : (Pmsg.body, Pmsg.t) Shell.t;
  on_execute : slot:int -> Pmsg.request -> unit;
  mutable view : int;
  mutable active : Pid.t list; (* participants: all (Full) or the quorum *)
  slots : (int, slot_state) Hashtbl.t;
  mutable max_slot : int;
  mutable exec_cursor : int;
  proposed : (int * int, int) Hashtbl.t;
  awaiting_pp : (int * int, unit) Hashtbl.t;
  mutable phase : phase;
  mutable view_changes : int;
  mutable last_vc_view : int;
  (* VIEW-CHANGE messages for views we have not entered yet (our own quorum
     selection may lag the senders'): keyed (view, src), latest kept. *)
  pending_vcs : (int * Pid.t, Pmsg.entry list) Hashtbl.t;
}

let me t = Shell.me t.sh

let fd t = Shell.detector t.sh

let set_fault t fault = Shell.set_fault t.sh fault

let view t = t.view

let participants t = t.active

let primary t =
  match t.config.participation with
  | Full -> t.view mod t.config.n
  | Selected -> ( match t.active with p :: _ -> p | [] -> assert false)

let is_primary t = primary t = me t

let in_active t = List.mem (me t) t.active

let view_changes t = t.view_changes

let detector = fd

let quorum_selector t = Shell.selector t.sh

(* Selected-mode views map deterministically to active sets through the
   lexicographic enumeration of q-subsets (same scheme as the XPaxos
   substrate), so every replica derives the same view number for the same
   quorum-selection output and view changes line up without extra
   agreement. *)
let q_of t = t.config.n - t.config.f

let group_of t view =
  Qs_stdx.Combin.unrank t.config.n (q_of t)
    (view mod Qs_stdx.Combin.choose t.config.n (q_of t))

let view_for t ~at_least ~group =
  let total = Qs_stdx.Combin.choose t.config.n (q_of t) in
  let rank = Qs_stdx.Combin.rank t.config.n group in
  let base = at_least / total * total in
  let candidate = base + rank in
  if candidate >= at_least then candidate else candidate + total

let send_active t body = Shell.multicast t.sh t.active body

let slot_state t slot =
  match Hashtbl.find_opt t.slots slot with
  | Some s -> s
  | None ->
    let s =
      {
        spp = None;
        prepares = [];
        commits = [];
        prepared = false;
        committed = false;
        executed = false;
      }
    in
    Hashtbl.replace t.slots slot s;
    if slot > t.max_slot then t.max_slot <- slot;
    s

(* ------------------------------------------------------------------ *)
(* Expectations (Selected mode only: Full-mode PBFT masks instead) *)

let selected t = t.config.participation = Selected

let expect_prepare t ~from ~view ~slot =
  Detector.expect (fd t) ~from ~tag:"prepare" (fun m ->
      match m.Pmsg.body with
      | Pmsg.Prepare p -> p.view = view && p.slot = slot
      | _ -> false)

let expect_commit t ~from ~view ~slot =
  Detector.expect (fd t) ~from ~tag:"commit" (fun m ->
      match m.Pmsg.body with
      | Pmsg.Commit c -> c.view = view && c.slot = slot
      | _ -> false)

let expect_pre_prepare_request t ~from ~view request =
  Detector.expect (fd t) ~from ~tag:"pre-prepare" (fun m ->
      match m.Pmsg.body with
      | Pmsg.Pre_prepare spp ->
        spp.Pmsg.pp.Pmsg.view >= view && spp.Pmsg.pp.Pmsg.request = request
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Commit pipeline *)

let try_execute t =
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt t.slots t.exec_cursor with
    | Some ({ committed = true; executed = false; spp = Some spp; _ } as s) ->
      s.executed <- true;
      t.on_execute ~slot:t.exec_cursor spp.Pmsg.pp.Pmsg.request;
      t.exec_cursor <- t.exec_cursor + 1
    | _ -> continue := false
  done

let record_vote votes voter = if List.mem voter votes then votes else voter :: votes

let check_commit t slot (s : slot_state) =
  if s.prepared && (not s.committed) && List.length s.commits >= (2 * t.config.f) + 1
  then begin
    s.committed <- true;
    ignore slot;
    try_execute t
  end

let check_prepared t slot (s : slot_state) =
  if (not s.prepared) && s.spp <> None && List.length s.prepares >= 2 * t.config.f
  then begin
    s.prepared <- true;
    (* Prepared: announce COMMIT to the participants, count our own vote. *)
    (match s.spp with
     | Some spp ->
       let d = Pmsg.digest spp.Pmsg.pp.Pmsg.request in
       send_active t (Pmsg.Commit { view = t.view; slot; cdigest = d });
       s.commits <- record_vote s.commits (me t);
       if selected t then
         List.iter
           (fun k -> if k <> me t then expect_commit t ~from:k ~view:t.view ~slot)
           t.active
     | None -> ());
    check_commit t slot s
  end

let adopt_pre_prepare t slot spp =
  let s = slot_state t slot in
  if s.spp = None then begin
    s.spp <- Some spp;
    let d = Pmsg.digest spp.Pmsg.pp.Pmsg.request in
    if not (is_primary t) then begin
      send_active t (Pmsg.Prepare { view = t.view; slot; pdigest = d });
      s.prepares <- record_vote s.prepares (me t)
    end;
    if selected t then begin
      List.iter
        (fun k ->
          if k <> me t && k <> primary t then expect_prepare t ~from:k ~view:t.view ~slot)
        t.active
    end;
    check_prepared t slot s
  end

let handle_pre_prepare t ~src spp =
  let pp = spp.Pmsg.pp in
  if
    in_active t && src = primary t && pp.Pmsg.view = t.view
    && Pmsg.verify_pre_prepare (Shell.auth t.sh) ~primary:src spp
  then begin
    let s = slot_state t pp.Pmsg.slot in
    match s.spp with
    | Some stored
      when stored.Pmsg.pp.Pmsg.view = pp.Pmsg.view
           && stored.Pmsg.pp.Pmsg.request <> pp.Pmsg.request ->
      (* Two signed bindings for one view/slot: primary equivocation. *)
      Detector.detected (fd t) src
    | Some stored when stored.Pmsg.pp.Pmsg.view < pp.Pmsg.view && not s.committed ->
      (* Re-proposal after a view change: restart the slot's voting. *)
      s.spp <- None;
      s.prepares <- [];
      s.commits <- [];
      s.prepared <- false;
      adopt_pre_prepare t pp.Pmsg.slot spp
    | Some _ -> ()
    | None -> adopt_pre_prepare t pp.Pmsg.slot spp
  end

(* A PREPARE/COMMIT vote counts only against a pre-prepare of the same view
   with the same digest — stale-view state must not mix into new-view
   certificates. *)
let vote_matches (s : slot_state) ~view d =
  match s.spp with
  | Some spp ->
    spp.Pmsg.pp.Pmsg.view = view && Pmsg.digest spp.Pmsg.pp.Pmsg.request = d
  | None -> false

let handle_prepare t ~src (view, slot, d) =
  if in_active t && List.mem src t.active && view = t.view && src <> primary t then begin
    let s = slot_state t slot in
    if vote_matches s ~view d then begin
      s.prepares <- record_vote s.prepares src;
      check_prepared t slot s
    end
  end

let handle_commit t ~src (view, slot, d) =
  if in_active t && List.mem src t.active && view = t.view then begin
    let s = slot_state t slot in
    if vote_matches s ~view d then begin
      s.commits <- record_vote s.commits src;
      check_commit t slot s
    end
  end

(* ------------------------------------------------------------------ *)
(* Proposals *)

let next_slot t = t.max_slot + 1

let propose_at t ~slot request =
  Hashtbl.replace t.proposed (request.Pmsg.client, request.Pmsg.rid) slot;
  let spp =
    Pmsg.sign_pre_prepare (Shell.auth t.sh) ~primary:(me t)
      { Pmsg.view = t.view; slot; request }
  in
  let s = slot_state t slot in
  s.spp <- Some spp;
  s.prepares <- [];
  s.commits <- [];
  s.prepared <- false;
  send_active t (Pmsg.Pre_prepare spp);
  if selected t then
    List.iter (fun k -> if k <> me t then expect_prepare t ~from:k ~view:t.view ~slot) t.active;
  check_prepared t slot s

let submit t request =
  if in_active t then begin
    let key = (request.Pmsg.client, request.Pmsg.rid) in
    match Hashtbl.find_opt t.proposed key with
    | Some slot when is_primary t -> begin
      match Hashtbl.find_opt t.slots slot with
      | Some ({ committed = false; spp = Some spp; _ } : slot_state)
        when spp.Pmsg.pp.Pmsg.view < t.view ->
        propose_at t ~slot request
      | _ -> ()
    end
    | Some _ -> ()
    | None ->
      if is_primary t then propose_at t ~slot:(next_slot t) request
      else if not (Hashtbl.mem t.awaiting_pp key) then begin
        Hashtbl.replace t.awaiting_pp key ();
        expect_pre_prepare_request t ~from:(primary t) ~view:t.view request
      end
  end

(* ------------------------------------------------------------------ *)
(* View / configuration change *)

let entry_provenance_ok t (e : Pmsg.entry) =
  (* The original pre-prepare was signed by the primary of [eview]. In Full
     mode that is eview mod n; in Selected mode views do not map statically
     to primaries, so provenance accepts any process's signature over the
     binding. To keep verification exact we try all processes — n is tens at
     most and this path is rare. *)
  let check primary =
    Pmsg.verify_pre_prepare (Shell.auth t.sh) ~primary
      {
        Pmsg.pp = { Pmsg.view = e.Pmsg.eview; slot = e.Pmsg.eslot; request = e.Pmsg.erequest };
        ppsig = e.Pmsg.epsig;
      }
  in
  match t.config.participation with
  | Full -> check (e.Pmsg.eview mod t.config.n)
  | Selected ->
    let rec any p = p < t.config.n && (check p || any (p + 1)) in
    any 0

let log_entries t =
  let all =
    Hashtbl.fold
      (fun slot (s : slot_state) acc ->
        match s.spp with
        | None -> acc
        | Some spp ->
          {
            Pmsg.eview = spp.Pmsg.pp.Pmsg.view;
            eslot = slot;
            erequest = spp.Pmsg.pp.Pmsg.request;
            ecommitted = s.committed;
            epsig = spp.Pmsg.ppsig;
          }
          :: acc)
      t.slots []
  in
  List.sort (fun a b -> compare a.Pmsg.eslot b.Pmsg.eslot) all

let merge_logs lists =
  let best : (int, Pmsg.entry) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (List.iter (fun (e : Pmsg.entry) ->
         match Hashtbl.find_opt best e.Pmsg.eslot with
         | None -> Hashtbl.replace best e.Pmsg.eslot e
         | Some cur ->
           if
             (e.Pmsg.ecommitted && not cur.Pmsg.ecommitted)
             || (e.Pmsg.ecommitted = cur.Pmsg.ecommitted && e.Pmsg.eview > cur.Pmsg.eview)
           then Hashtbl.replace best e.Pmsg.eslot e))
    lists;
  List.sort
    (fun a b -> compare a.Pmsg.eslot b.Pmsg.eslot)
    (Hashtbl.fold (fun _ e acc -> e :: acc) best [])

let install_committed t (e : Pmsg.entry) =
  let s = slot_state t e.Pmsg.eslot in
  s.spp <-
    Some
      {
        Pmsg.pp = { Pmsg.view = e.Pmsg.eview; slot = e.Pmsg.eslot; request = e.Pmsg.erequest };
        ppsig = e.Pmsg.epsig;
      };
  s.committed <- true;
  Hashtbl.replace t.proposed (e.Pmsg.erequest.Pmsg.client, e.Pmsg.erequest.Pmsg.rid)
    e.Pmsg.eslot

let collect_target t =
  match t.config.participation with
  | Full -> (2 * t.config.f) + 1
  | Selected -> List.length t.active

let finish_collect t tbl =
  let have = Hashtbl.length tbl in
  let enough =
    match t.config.participation with
    | Full -> have >= collect_target t
    | Selected -> List.for_all (fun k -> Hashtbl.mem tbl k) t.active
  in
  if enough then begin
    let merged = merge_logs (Hashtbl.fold (fun _ es acc -> es :: acc) tbl []) in
    send_active t (Pmsg.New_view { nview = t.view; nlog = merged });
    t.phase <- Normal;
    List.iter
      (fun (e : Pmsg.entry) ->
        if e.Pmsg.ecommitted then install_committed t e
        else propose_at t ~slot:e.Pmsg.eslot e.Pmsg.erequest)
      merged;
    try_execute t
  end

let record_vc t tbl ~src vlog =
  if (not (Hashtbl.mem tbl src)) && List.mem src t.active then begin
    if List.for_all (entry_provenance_ok t) vlog then begin
      Hashtbl.replace tbl src vlog;
      finish_collect t tbl
    end
    else Detector.detected (fd t) src
  end

let enter_view t ~view ~active =
  t.view <- view;
  t.active <- active;
  t.view_changes <- t.view_changes + 1;
  Hashtbl.reset t.awaiting_pp;
  Detector.cancel_all (fd t);
  if not (in_active t) then t.phase <- Normal
  else if is_primary t then begin
    let tbl = Hashtbl.create 8 in
    Hashtbl.replace tbl (me t) (log_entries t);
    t.phase <- Collecting tbl;
    (* Drain VIEW-CHANGEs that arrived before we entered this view. *)
    let stashed =
      Hashtbl.fold
        (fun (v, src) vlog acc -> if v = view then (src, vlog) :: acc else acc)
        t.pending_vcs []
    in
    List.iter
      (fun (src, vlog) ->
        match t.phase with
        | Collecting tbl -> record_vc t tbl ~src vlog
        | _ -> ())
      stashed;
    (match t.phase with Collecting tbl -> finish_collect t tbl | _ -> ())
  end
  else begin
    t.phase <- Awaiting_nv;
    Shell.send t.sh ~dst:(primary t) (Pmsg.View_change { vview = t.view; vlog = log_entries t })
  end

(* Full-mode rotation: anyone suspecting the primary broadcasts a
   VIEW-CHANGE for view+1; receivers join. In Full mode the active set is
   everyone, so [send_active] reaches every other replica. *)
let start_rotation t =
  if t.config.participation = Full && t.last_vc_view < t.view + 1 then begin
    t.last_vc_view <- t.view + 1;
    let target = t.view + 1 in
    send_active t (Pmsg.View_change { vview = target; vlog = log_entries t });
    enter_view t ~view:target ~active:t.active
  end

let handle_view_change t ~src (vview, vlog) =
  match t.config.participation with
  | Full ->
    if vview > t.view then begin
      t.last_vc_view <- max t.last_vc_view vview;
      (* Join the view change; our own VC travels to everyone. *)
      send_active t (Pmsg.View_change { vview; vlog = log_entries t });
      enter_view t ~view:vview ~active:t.active
    end;
    if vview = t.view && is_primary t then begin
      match t.phase with
      | Collecting tbl when not (Hashtbl.mem tbl src) ->
        if List.for_all (entry_provenance_ok t) vlog then begin
          Hashtbl.replace tbl src vlog;
          finish_collect t tbl
        end
        else Detector.detected (fd t) src
      | _ -> ()
    end
  | Selected ->
    if vview > t.view then begin
      (* Catch up: the sender's quorum selection ran ahead of ours. The
         active set is derived from the view number, so joining is safe. *)
      Hashtbl.replace t.pending_vcs (vview, src) vlog;
      enter_view t ~view:vview ~active:(group_of t vview)
    end
    else if vview = t.view && is_primary t then begin
      match t.phase with
      | Collecting tbl -> record_vc t tbl ~src vlog
      | _ -> ()
    end

let handle_new_view t ~src (nview, nlog) =
  if nview = t.view && src = primary t && in_active t && not (is_primary t) then begin
    if List.for_all (entry_provenance_ok t) nlog then begin
      List.iter (fun (e : Pmsg.entry) -> if e.Pmsg.ecommitted then install_committed t e) nlog;
      t.phase <- Normal;
      try_execute t
    end
    else Detector.detected (fd t) src
  end

(* ------------------------------------------------------------------ *)
(* Suspicion plumbing *)

(* Full mode only: in Selected mode Algorithm 1 consumes suspicions. *)
let on_suspected t suspects = if List.mem (primary t) suspects then start_rotation t

let on_qs_quorum t quorum =
  if quorum <> t.active then begin
    let target = view_for t ~at_least:(t.view + 1) ~group:quorum in
    enter_view t ~view:target ~active:quorum
  end

(* ------------------------------------------------------------------ *)

let process t ~src msg =
  match msg.Pmsg.body with
  | Pmsg.Pre_prepare spp -> handle_pre_prepare t ~src spp
  | Pmsg.Prepare { view; slot; pdigest } -> handle_prepare t ~src (view, slot, pdigest)
  | Pmsg.Commit { view; slot; cdigest } -> handle_commit t ~src (view, slot, cdigest)
  | Pmsg.View_change { vview; vlog } -> handle_view_change t ~src (vview, vlog)
  | Pmsg.New_view { nview; nlog } -> handle_new_view t ~src (nview, nlog)
  | Pmsg.Qsel update -> Shell.update t.sh update

let receive t = Shell.receive t.sh

let executed t =
  let rec loop slot acc =
    match Hashtbl.find_opt t.slots slot with
    | Some ({ executed = true; spp = Some spp; _ } : slot_state) ->
      loop (slot + 1) (spp.Pmsg.pp.Pmsg.request :: acc)
    | _ -> List.rev acc
  in
  loop 0 []

(* The model checker's key for this replica: view, participants, rotation
   watermark, execution cursor and phase, every slot's binding, votes and
   marks, the proposal and wait tables and the stashed VIEW-CHANGEs, then
   the shell's part. *)
let write_key t key =
  let module K = Qs_stdx.State_key in
  let module Smr = Qs_sim.Smr_cluster in
  let entries =
    K.add_list key (fun (e : Pmsg.entry) ->
        K.add key e.Pmsg.eview;
        K.add key e.Pmsg.eslot;
        Smr.write_id key e.Pmsg.erequest;
        K.add_bool key e.Pmsg.ecommitted)
  in
  K.add key t.view;
  K.add_pids key t.active;
  K.add key t.last_vc_view;
  K.add key t.exec_cursor;
  (match t.phase with
   | Normal -> K.add key 0
   | Awaiting_nv -> K.add key 1
   | Collecting tbl ->
     K.add key 2;
     K.add_table key tbl (fun src es ->
         K.add_pid key src;
         entries es));
  for slot = 0 to t.max_slot do
    match Hashtbl.find_opt t.slots slot with
    | None -> ()
    | Some s ->
      K.add key slot;
      (match s.spp with
       | None -> K.add key 0
       | Some { Pmsg.pp; _ } ->
         K.add key 1;
         K.add key pp.Pmsg.view;
         Smr.write_id key pp.Pmsg.request);
      K.add_pids_sorted key s.prepares;
      K.add_pids_sorted key s.commits;
      K.add_bool key s.prepared;
      K.add_bool key s.committed;
      K.add_bool key s.executed
  done;
  K.add key (-1);
  Smr.write_id_table key t.proposed (K.add key);
  Smr.write_id_table key t.awaiting_pp ignore;
  K.add_table key t.pending_vcs (fun (v, src) es ->
      K.add key v;
      K.add_pid key src;
      entries es);
  Shell.write_key t.sh key

let create config ~me ~auth ~sim ~net_send ?(on_execute = fun ~slot:_ _ -> ()) () =
  if config.n <> (3 * config.f) + 1 then invalid_arg "Preplica.create: need n = 3f+1";
  let sh =
    Shell.create ~who:"Preplica.create" ~n:config.n ~me ~auth ~sim ~net_send ~seal:Pmsg.seal ~verify:Pmsg.verify
      ~sender:(fun m -> m.Pmsg.sender)
      ~initial_timeout:config.initial_timeout config.timeout_strategy
  in
  let t =
    {
      config;
      sh;
      on_execute;
      view = 0;
      active =
        (match config.participation with
         | Full -> List.init config.n Fun.id
         | Selected -> List.init (config.n - config.f) Fun.id);
      slots = Hashtbl.create 64;
      max_slot = -1;
      exec_cursor = 0;
      proposed = Hashtbl.create 64;
      awaiting_pp = Hashtbl.create 64;
      phase = Normal;
      view_changes = 0;
      last_vc_view = 0;
      pending_vcs = Hashtbl.create 16;
    }
  in
  Shell.start sh ~deliver:(process t)
    (match config.participation with
     | Full -> Shell.Protocol (on_suspected t)
     | Selected ->
       Shell.Select
         { f = config.f; wrap = (fun u -> Pmsg.Qsel u); on_quorum = on_qs_quorum t });
  t
