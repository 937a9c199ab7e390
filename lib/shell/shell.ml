module Sim = Qs_sim.Sim
module Detector = Qs_fd.Detector
module Timeout = Qs_fd.Timeout
module QS = Qs_core.Quorum_select
module Pid = Qs_core.Pid
module Auth = Qs_crypto.Auth
module Smr = Qs_sim.Smr_cluster

type fault = Honest | Mute | Omit_to of Pid.t list

type ('b, 'm) t = {
  me : Pid.t;
  n : int;
  auth : Auth.t;
  sim : Sim.t;
  net_send : dst:Pid.t -> 'm -> unit;
  seal : Auth.t -> sender:Pid.t -> 'b -> 'm;
  verify : Auth.t -> 'm -> bool;
  sender : 'm -> Pid.t;
  mutable fault : fault;
  timeouts : Timeout.t;
  detector : 'm Detector.t;
  (* The detector's outputs, set by [start] once the replica exists. *)
  deliver : (src:Pid.t -> 'm -> unit) ref;
  on_suspected : (Pid.t list -> unit) ref;
  mutable selector : QS.t option;
  executed_ids : (int * int, unit) Hashtbl.t;
  mutable executed : Smr.request list; (* reversed *)
}

type 'b suspicions =
  | Protocol of (Pid.t list -> unit)
  | Select of { f : int; wrap : Qs_core.Msg.t -> 'b; on_quorum : Pid.t list -> unit }

let create ~who ~n ~me ~auth ~sim ~net_send ~seal ~verify ~sender ~initial_timeout
    strategy =
  if me < 0 || me >= n then invalid_arg (who ^ ": me out of range");
  if Auth.universe auth < n then invalid_arg (who ^ ": auth universe too small");
  let timeouts = Timeout.create ~n ~initial:initial_timeout strategy in
  let deliver = ref (fun ~src:_ _ -> ()) and on_suspected = ref ignore in
  let detector =
    Detector.create ~sim ~me ~n ~timeouts
      ~deliver:(fun ~src m -> !deliver ~src m)
      ~on_suspected:(fun s -> !on_suspected s)
      ()
  in
  {
    me;
    n;
    auth;
    sim;
    net_send;
    seal;
    verify;
    sender;
    fault = Honest;
    timeouts;
    detector;
    deliver;
    on_suspected;
    selector = None;
    executed_ids = Hashtbl.create 64;
    executed = [];
  }

let me t = t.me

let auth t = t.auth

let sim t = t.sim

let set_fault t fault = t.fault <- fault

let detector t = t.detector

let timeouts t = t.timeouts

let selector t = t.selector

(* The link fault never applies to the process's own address. *)
let allows t dst =
  match t.fault with
  | _ when dst = t.me -> true
  | Honest -> true
  | Mute -> false
  | Omit_to victims -> not (List.mem dst victims)

let send t ~dst body =
  if allows t dst then t.net_send ~dst (t.seal t.auth ~sender:t.me body)

let multicast t dsts body =
  let m = t.seal t.auth ~sender:t.me body in
  List.iter (fun dst -> if dst <> t.me && allows t dst then t.net_send ~dst m) dsts

let broadcast t body =
  let m = t.seal t.auth ~sender:t.me body in
  for dst = 0 to t.n - 1 do
    if allows t dst then t.net_send ~dst m
  done

let receive t ~src m =
  if t.verify t.auth m && t.sender m = src then Detector.receive t.detector ~src m

let start t ~deliver suspicions =
  t.deliver := deliver;
  match suspicions with
  | Protocol on_suspected -> t.on_suspected := on_suspected
  | Select { f; wrap; on_quorum } ->
    let qs =
      QS.create { QS.n = t.n; f } ~me:t.me ~auth:t.auth
        ~send:(fun update -> broadcast t (wrap update))
        ~on_quorum ()
    in
    t.selector <- Some qs;
    t.on_suspected := QS.handle_suspected qs

let update t u = match t.selector with Some qs -> QS.handle_update qs u | None -> ()

let execute_once t r =
  let id = Smr.request_id r in
  let first = not (Hashtbl.mem t.executed_ids id) in
  if first then begin
    Hashtbl.replace t.executed_ids id ();
    t.executed <- r :: t.executed
  end;
  first

let executed t = List.rev t.executed

let write_key t key =
  let module K = Qs_stdx.State_key in
  K.add_pids key (Detector.suspected t.detector);
  K.add key (Detector.open_expectations t.detector);
  match t.selector with
  | Some qs ->
    K.add key 1;
    QS.write_key qs key
  | None -> K.add key 0
