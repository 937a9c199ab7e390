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
  mutable prepare : Mmsg.prepare option;
  mutable committers : Pid.t list;  (** distinct commit-certificate senders *)
  mutable executed : bool;
}

type t = {
  config : config;
  sh : (Mmsg.body, Mmsg.t) Shell.t;
  usig : Usig.t;
  monitor : Usig.monitor;
  monitor_directory : Usig.directory;
  resync_pending : bool array;
  on_execute : Mmsg.request -> unit;
  mutable active : Pid.t list;
  mutable cepoch : int;
  slots : (int * int, slot_state) Hashtbl.t; (* (cepoch, slot) *)
  mutable next_slot : int;
  proposed : (int * int, unit) Hashtbl.t;
  awaiting_prepare : (int * int, unit) Hashtbl.t;
  mutable gaps : int;
}

let me t = Shell.me t.sh

let fd t = Shell.detector t.sh

let detector = fd

let quorum_selector t = Shell.selector t.sh

let set_fault t fault = Shell.set_fault t.sh fault

let active t = t.active

let primary t = match t.active with p :: _ -> p | [] -> assert false

let is_primary t = primary t = me t

let in_active t = List.mem (me t) t.active

let config_epoch t = t.cepoch

let executed t = Shell.executed t.sh

let usig_gaps t = t.gaps

let send_active t body = Shell.multicast t.sh t.active body

let slot_state t key =
  match Hashtbl.find_opt t.slots key with
  | Some s -> s
  | None ->
    let s = { prepare = None; committers = []; executed = false } in
    Hashtbl.replace t.slots key s;
    s

let execute t request = if Shell.execute_once t.sh request then t.on_execute request

(* Counter acceptance with post-reconfiguration resync. *)
let accept_ui t ~digest (ui : Usig.ui) =
  match Usig.accept t.monitor ~digest ui with
  | `Ok -> true
  | `Gap when t.resync_pending.(ui.Usig.origin) ->
    t.resync_pending.(ui.Usig.origin) <- false;
    Usig.resync t.monitor ui.Usig.origin ui.Usig.counter;
    Usig.accept t.monitor ~digest ui = `Ok
  | `Gap ->
    t.gaps <- t.gaps + 1;
    false
  | `Replay | `Bad_signature -> false

(* ------------------------------------------------------------------ *)
(* Expectations (Selected mode) *)

let selected t = t.config.participation = Selected

let expect_commit t ~from ~slot =
  let epoch = t.cepoch in
  Detector.expect (fd t) ~from ~tag:"commit" (fun m ->
      match m.Mmsg.body with
      | Mmsg.Commit { cprepare; _ } ->
        cprepare.Mmsg.pview = epoch && cprepare.Mmsg.pslot = slot
      | _ -> false)

let expect_prepare_request t ~from request =
  let epoch = t.cepoch in
  Detector.expect (fd t) ~from ~tag:"prepare" (fun m ->
      match m.Mmsg.body with
      | Mmsg.Prepare p -> p.Mmsg.pview >= epoch && p.Mmsg.prequest = request
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Commit pipeline: committed on f+1 distinct contributors (the primary's
   PREPARE counts as its contribution). In Selected mode the active set has
   exactly f+1 members, so this means everyone. *)

let check_commit t (s : slot_state) =
  match s.prepare with
  | Some p when not s.executed ->
    let contributors = List.sort_uniq compare (p.Mmsg.pui.Usig.origin :: s.committers) in
    if List.length contributors >= t.config.f + 1 then begin
      s.executed <- true;
      execute t p.Mmsg.prequest
    end
  | _ -> ()

let adopt_prepare t (p : Mmsg.prepare) =
  let s = slot_state t (p.Mmsg.pview, p.Mmsg.pslot) in
  if s.prepare = None then begin
    s.prepare <- Some p;
    if not (is_primary t) then begin
      let cui = Usig.certify t.usig ~digest:(Mmsg.commit_digest p ~committer:(me t)) in
      send_active t (Mmsg.Commit { cprepare = p; cui });
      if not (List.mem (me t) s.committers) then s.committers <- me t :: s.committers;
      if selected t then
        List.iter
          (fun k -> if k <> me t && k <> primary t then expect_commit t ~from:k ~slot:p.Mmsg.pslot)
          t.active
    end;
    check_commit t s
  end

let handle_prepare t ~src (p : Mmsg.prepare) =
  if
    in_active t && src = primary t && p.Mmsg.pview = t.cepoch
    && p.Mmsg.pui.Usig.origin = src
    && accept_ui t ~digest:(Mmsg.digest_of ~view:p.Mmsg.pview ~slot:p.Mmsg.pslot p.Mmsg.prequest)
         p.Mmsg.pui
  then adopt_prepare t p

let handle_commit t ~src (cprepare, cui) =
  if in_active t && List.mem src t.active && cprepare.Mmsg.pview = t.cepoch then begin
    (* Verify the embedded primary certificate statelessly (its counter
       order is tracked on the direct PREPARE stream) and the committer's
       certificate in counter order. *)
    let embedded_ok =
      cprepare.Mmsg.pui.Usig.origin = primary t
      && Usig.verify t.monitor_directory
           ~digest:
             (Mmsg.digest_of ~view:cprepare.Mmsg.pview ~slot:cprepare.Mmsg.pslot
                cprepare.Mmsg.prequest)
           cprepare.Mmsg.pui
    in
    if
      embedded_ok && cui.Usig.origin = src
      && accept_ui t ~digest:(Mmsg.commit_digest cprepare ~committer:src) cui
    then begin
      let s = slot_state t (cprepare.Mmsg.pview, cprepare.Mmsg.pslot) in
      if s.prepare = None then adopt_prepare t cprepare;
      if not (List.mem src s.committers) then s.committers <- src :: s.committers;
      check_commit t s
    end
  end

(* ------------------------------------------------------------------ *)
(* Proposals *)

let propose t request =
  let key = (request.Mmsg.client, request.Mmsg.rid) in
  Hashtbl.replace t.proposed key ();
  let slot = t.next_slot in
  t.next_slot <- slot + 1;
  let digest = Mmsg.digest_of ~view:t.cepoch ~slot request in
  let p =
    {
      Mmsg.pview = t.cepoch;
      pslot = slot;
      prequest = request;
      pui = Usig.certify t.usig ~digest;
    }
  in
  let s = slot_state t (t.cepoch, slot) in
  s.prepare <- Some p;
  send_active t (Mmsg.Prepare p);
  if selected t then
    List.iter (fun k -> if k <> me t then expect_commit t ~from:k ~slot) t.active;
  check_commit t s

(* Note: no early return on local execution — the cluster-wide commit may
   still need this replica's proposal or expectation (a primary that
   executed in an earlier configuration must re-propose for peers that did
   not). Exactly-once execution is enforced at [execute]. *)
let submit t request =
  let key = (request.Mmsg.client, request.Mmsg.rid) in
  if in_active t then begin
    if is_primary t then begin
      if not (Hashtbl.mem t.proposed key) then propose t request
    end
    else if selected t && not (Hashtbl.mem t.awaiting_prepare key) then begin
      Hashtbl.replace t.awaiting_prepare key ();
      expect_prepare_request t ~from:(primary t) request
    end
  end

(* ------------------------------------------------------------------ *)

let on_quorum t quorum =
  if quorum <> t.active then begin
    t.cepoch <- t.cepoch + 1;
    t.active <- quorum;
    Detector.cancel_all (fd t);
    Hashtbl.reset t.proposed;
    Hashtbl.reset t.awaiting_prepare;
    Array.fill t.resync_pending 0 t.config.n true
  end

let process t ~src msg =
  match msg.Mmsg.body with
  | Mmsg.Prepare p -> handle_prepare t ~src p
  | Mmsg.Commit { cprepare; cui } -> handle_commit t ~src (cprepare, cui)
  | Mmsg.Qsel update -> Shell.update t.sh update

let receive t = Shell.receive t.sh

(* The model checker's key for this replica: active set, config epoch, next
   slot, its own USIG counter and the counters it expects of every peer,
   the pending resyncs, the executed requests in order, every slot's
   PREPARE, committers and mark, the proposal and wait tables, then the
   shell's part. *)
let write_key t key =
  let module K = Qs_stdx.State_key in
  let module Smr = Qs_sim.Smr_cluster in
  K.add_pids key t.active;
  K.add key t.cepoch;
  K.add key t.next_slot;
  K.add key (Usig.counter t.usig);
  K.add_list key (K.add key) (List.init t.config.n (Usig.expected_next t.monitor));
  Array.iter (K.add_bool key) t.resync_pending;
  K.add_list key (Smr.write_id key) (Shell.executed t.sh);
  K.add_table key t.slots (fun (epoch, slot) s ->
      K.add key epoch;
      K.add key slot;
      (match s.prepare with
       | None -> K.add key 0
       | Some p ->
         K.add key 1;
         Smr.write_id key p.Mmsg.prequest;
         K.add key p.Mmsg.pui.Usig.counter);
      K.add_pids_sorted key s.committers;
      K.add_bool key s.executed);
  Smr.write_id_table key t.proposed ignore;
  Smr.write_id_table key t.awaiting_prepare ignore;
  Shell.write_key t.sh key

let create config ~me ~auth ~usig ~usig_directory ~sim ~net_send
    ?(on_execute = fun _ -> ()) () =
  if config.n <> (2 * config.f) + 1 then invalid_arg "Mreplica.create: need n = 2f+1";
  let sh =
    Shell.create ~who:"Mreplica.create" ~n:config.n ~me ~auth ~sim ~net_send ~seal:Mmsg.seal ~verify:Mmsg.verify
      ~sender:(fun m -> m.Mmsg.sender)
      ~initial_timeout:config.initial_timeout config.timeout_strategy
  in
  let t =
    {
      config;
      sh;
      usig;
      monitor = Usig.monitor usig_directory ~n:config.n;
      monitor_directory = usig_directory;
      resync_pending = Array.make config.n false;
      on_execute;
      active =
        (match config.participation with
         | Full -> List.init config.n Fun.id
         | Selected -> List.init (config.n - config.f) Fun.id);
      cepoch = 0;
      slots = Hashtbl.create 64;
      next_slot = 0;
      proposed = Hashtbl.create 64;
      awaiting_prepare = Hashtbl.create 64;
      gaps = 0;
    }
  in
  Shell.start sh ~deliver:(process t)
    (match config.participation with
     | Full -> Shell.Protocol ignore
     | Selected ->
       Shell.Select
         { f = config.f; wrap = (fun u -> Mmsg.Qsel u); on_quorum = on_quorum t });
  t
