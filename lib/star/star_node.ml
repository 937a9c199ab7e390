module Detector = Qs_fd.Detector
module Timeout = Qs_fd.Timeout
module Pid = Qs_core.Pid
module Shell = Qs_shell.Shell
module Fsel = Qs_follower.Follower_select
module Fmsg = Qs_follower.Fmsg

type config = {
  n : int;
  f : int;
  initial_timeout : Qs_sim.Stime.t;
  timeout_strategy : Timeout.strategy;
}

type fault = Shell.fault = Honest | Mute | Omit_to of Pid.t list

type slot_state = {
  mutable request : Star_msg.request option;
  mutable acks : Pid.t list;
  mutable applied : bool;
}

type t = {
  config : config;
  sh : (Star_msg.body, Star_msg.t) Shell.t;
  on_execute : Star_msg.request -> unit;
  mutable fsel : Fsel.t option;
  mutable leader : Pid.t;
  mutable quorum : Pid.t list;
  mutable qepoch : int;
  slots : (int * int, slot_state) Hashtbl.t; (* (qepoch, slot) *)
  mutable next_slot : int;
  proposed : (int * int, int) Hashtbl.t; (* request id -> slot in current epoch *)
  awaiting_lead : (int * int, unit) Hashtbl.t;
}

let me t = Shell.me t.sh

let fd t = Shell.detector t.sh

let selector t = Option.get t.fsel

let detector = fd

let set_fault t fault = Shell.set_fault t.sh fault

let leader t = t.leader

let quorum t = t.quorum

let is_leader t = t.leader = me t

let in_quorum t = List.mem (me t) t.quorum

let quorum_epoch t = t.qepoch

let executed t = Shell.executed t.sh

let send t = Shell.send t.sh

let slot_state t key =
  match Hashtbl.find_opt t.slots key with
  | Some s -> s
  | None ->
    let s = { request = None; acks = []; applied = false } in
    Hashtbl.replace t.slots key s;
    s

let execute t request = if Shell.execute_once t.sh request then t.on_execute request

(* ------------------------------------------------------------------ *)
(* Expectations *)

let expect_ack t ~from ~slot =
  let epoch = t.qepoch in
  Detector.expect (fd t) ~from ~tag:"ack" (fun m ->
      match m.Star_msg.body with
      | Star_msg.Ack { aslot; aepoch } -> aslot = slot && aepoch = epoch
      | _ -> false)

(* APPLY needs the whole fan-in to finish first: 3x the base timeout keeps
   the leader's ACK expectation the first to fire on a follower fault. *)
let expect_apply t ~slot =
  let epoch = t.qepoch in
  Detector.expect (fd t) ~from:t.leader ~tag:"apply" ~timeout:(3 * t.config.initial_timeout)
    (fun m ->
      match m.Star_msg.body with
      | Star_msg.Apply { pslot; pepoch } -> pslot = slot && pepoch = epoch
      | _ -> false)

let expect_lead_request t (request : Star_msg.request) =
  Detector.expect (fd t) ~from:t.leader ~tag:"lead" (fun m ->
      match m.Star_msg.body with
      | Star_msg.Lead l -> l.Star_msg.request = request
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Protocol *)

let followers t = List.filter (fun p -> p <> t.leader) t.quorum

let propose t request =
  let key = (request.Star_msg.client, request.Star_msg.rid) in
  let slot = t.next_slot in
  t.next_slot <- slot + 1;
  Hashtbl.replace t.proposed key slot;
  let lsig =
    Star_msg.sign_lead (Shell.auth t.sh) ~leader:(me t) ~slot ~qepoch:t.qepoch request
  in
  let s = slot_state t (t.qepoch, slot) in
  s.request <- Some request;
  List.iter
    (fun fw ->
      send t ~dst:fw (Star_msg.Lead { Star_msg.slot; qepoch = t.qepoch; request; lsig });
      expect_ack t ~from:fw ~slot)
    (followers t)

(* No early return on local execution: the leader executes before the APPLY
   fan-out, so after a reconfiguration it may be the only node that has —
   it must still re-propose for the others. Exactly-once execution is
   enforced at [execute]. *)
let submit t request =
  let key = (request.Star_msg.client, request.Star_msg.rid) in
  if is_leader t && in_quorum t then begin
    if not (Hashtbl.mem t.proposed key) then propose t request
  end
  else if in_quorum t && not (Hashtbl.mem t.awaiting_lead key) then begin
    Hashtbl.replace t.awaiting_lead key ();
    expect_lead_request t request
  end

let handle_lead t ~src (l : Star_msg.lead) =
  if
    in_quorum t && src = t.leader && l.Star_msg.qepoch = t.qepoch
    && Star_msg.verify_lead (Shell.auth t.sh) ~leader:src l
  then begin
    let s = slot_state t (t.qepoch, l.Star_msg.slot) in
    match s.request with
    | Some stored when stored <> l.Star_msg.request ->
      (* Two signed bindings for one slot/epoch: leader equivocation. *)
      Detector.detected (fd t) src
    | Some _ -> ()
    | None ->
      s.request <- Some l.Star_msg.request;
      send t ~dst:t.leader (Star_msg.Ack { aslot = l.Star_msg.slot; aepoch = t.qepoch });
      expect_apply t ~slot:l.Star_msg.slot
  end

let handle_ack t ~src (aslot, aepoch) =
  if is_leader t && aepoch = t.qepoch && List.mem src (followers t) then begin
    let s = slot_state t (t.qepoch, aslot) in
    if not (List.mem src s.acks) then s.acks <- src :: s.acks;
    if (not s.applied) && List.for_all (fun fw -> List.mem fw s.acks) (followers t) then begin
      s.applied <- true;
      (match s.request with Some r -> execute t r | None -> ());
      List.iter
        (fun fw -> send t ~dst:fw (Star_msg.Apply { pslot = aslot; pepoch = t.qepoch }))
        (followers t)
    end
  end

let handle_apply t ~src (pslot, pepoch) =
  if in_quorum t && src = t.leader && pepoch = t.qepoch then begin
    let s = slot_state t (t.qepoch, pslot) in
    if not s.applied then begin
      s.applied <- true;
      match s.request with Some r -> execute t r | None -> ()
    end
  end

(* ------------------------------------------------------------------ *)
(* Follower Selection wiring *)

let on_quorum t ~leader quorum =
  if leader <> t.leader || quorum <> t.quorum then begin
    t.qepoch <- t.qepoch + 1;
    t.leader <- leader;
    t.quorum <- quorum;
    Hashtbl.reset t.proposed;
    Hashtbl.reset t.awaiting_lead
    (* Expectations were already cancelled by Algorithm 2's fd_cancel on the
       leader switch; in-flight slots die with the old epoch and clients
       resubmit. *)
  end

let process t ~src msg =
  match msg.Star_msg.body with
  | Star_msg.Lead l -> handle_lead t ~src l
  | Star_msg.Ack { aslot; aepoch } -> handle_ack t ~src (aslot, aepoch)
  | Star_msg.Apply { pslot; pepoch } -> handle_apply t ~src (pslot, pepoch)
  | Star_msg.Fsel m -> Fsel.handle_msg (selector t) m

let receive t = Shell.receive t.sh

(* The model checker's key for this node: leader, quorum, quorum epoch, next
   slot, the executed requests in order, every slot's request, acks and
   mark, the proposal and wait tables and the Follower Selection instance,
   then the shell's part. *)
let write_key t key =
  let module K = Qs_stdx.State_key in
  let module Smr = Qs_sim.Smr_cluster in
  K.add_pid key t.leader;
  K.add_pids key t.quorum;
  K.add key t.qepoch;
  K.add key t.next_slot;
  K.add_list key (Smr.write_id key) (Shell.executed t.sh);
  K.add_table key t.slots (fun (epoch, slot) s ->
      K.add key epoch;
      K.add key slot;
      (match s.request with
       | None -> K.add key 0
       | Some r ->
         K.add key 1;
         Smr.write_id key r);
      K.add_pids_sorted key s.acks;
      K.add_bool key s.applied);
  Smr.write_id_table key t.proposed (K.add key);
  Smr.write_id_table key t.awaiting_lead ignore;
  Fsel.write_key (selector t) key;
  Shell.write_key t.sh key

let create config ~me ~auth ~sim ~net_send ?(on_execute = fun _ -> ()) () =
  if config.n <= 3 * config.f then invalid_arg "Star_node.create: requires n > 3f";
  let sh =
    Shell.create ~who:"Star_node.create" ~n:config.n ~me ~auth ~sim ~net_send
      ~seal:Star_msg.seal ~verify:Star_msg.verify
      ~sender:(fun m -> m.Star_msg.sender)
      ~initial_timeout:config.initial_timeout config.timeout_strategy
  in
  let t =
    {
      config;
      sh;
      on_execute;
      fsel = None;
      leader = 0;
      quorum = List.init (config.n - config.f) Fun.id;
      qepoch = 0;
      slots = Hashtbl.create 64;
      next_slot = 0;
      proposed = Hashtbl.create 64;
      awaiting_lead = Hashtbl.create 64;
    }
  in
  Shell.start sh ~deliver:(process t)
    (Shell.Protocol (fun s -> Fsel.handle_suspected (selector t) s));
  t.fsel <-
    Some
      (Fsel.create
         { Qs_core.Quorum_select.n = config.n; f = config.f }
         ~me ~auth
         ~send:(fun m -> Shell.broadcast sh (Star_msg.Fsel m))
         ~on_quorum:(fun ~leader quorum -> on_quorum t ~leader quorum)
         ~fd_expect:(fun ~leader ~epoch ->
           Detector.expect (fd t) ~from:leader ~tag:"followers" (fun m ->
               match m.Star_msg.body with
               | Star_msg.Fsel { Fmsg.payload = Fmsg.Followers f; _ } ->
                 f.Fmsg.leader = leader && f.Fmsg.epoch = epoch
               | _ -> false))
         ~fd_cancel:(fun () -> Detector.cancel_all (fd t))
         ~fd_detected:(fun culprit -> Detector.detected (fd t) culprit)
         ());
  t
