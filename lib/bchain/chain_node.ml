module Detector = Qs_fd.Detector
module Timeout = Qs_fd.Timeout
module Pid = Qs_core.Pid
module Shell = Qs_shell.Shell

type config = {
  n : int;
  f : int;
  initial_timeout : Qs_sim.Stime.t;
  timeout_strategy : Timeout.strategy;
}

type fault = Shell.fault = Honest | Mute | Omit_to of Pid.t list

type slot_state = {
  mutable forward : Chain_msg.forward option;
  mutable committed : bool;
}

type t = {
  config : config;
  sh : (Chain_msg.body, Chain_msg.t) Shell.t;
  on_execute : Chain_msg.request -> unit;
  mutable chain : Pid.t list;
  mutable cepoch : int;
  slots : (int * int, slot_state) Hashtbl.t; (* (cepoch, slot) *)
  mutable next_slot : int;
  proposed : (int * int, unit) Hashtbl.t; (* request ids the head proposed *)
  awaiting_forward : (int * int, unit) Hashtbl.t;
}

let me t = Shell.me t.sh

let fd t = Shell.detector t.sh

let set_fault t fault = Shell.set_fault t.sh fault

let chain t = t.chain

let head t = match t.chain with h :: _ -> h | [] -> assert false

let is_head t = head t = me t

let chain_epoch t = t.cepoch

let executed t = Shell.executed t.sh

let detector = fd

let quorum_selector t = Option.get (Shell.selector t.sh)

let send t = Shell.send t.sh

(* Chain neighbors. *)
let successor t =
  let rec loop = function
    | a :: b :: _ when a = me t -> Some b
    | _ :: rest -> loop rest
    | [] -> None
  in
  loop t.chain

let predecessor t =
  let rec loop prev = function
    | a :: _ when a = me t -> prev
    | a :: rest -> loop (Some a) rest
    | [] -> None
  in
  loop None t.chain

let in_chain t = List.mem (me t) t.chain

let slot_state t key =
  match Hashtbl.find_opt t.slots key with
  | Some s -> s
  | None ->
    let s = { forward = None; committed = false } in
    Hashtbl.replace t.slots key s;
    s

let execute t request = if Shell.execute_once t.sh request then t.on_execute request

(* Position in the current chain, 0 = head. *)
let position t =
  let rec loop i = function
    | p :: _ when p = me t -> Some i
    | _ :: rest -> loop (i + 1) rest
    | [] -> None
  in
  loop 0 t.chain

(* Ack deadlines scale with the distance to the tail: the predecessor of a
   failed link is the first to time out, so blame lands on the actual
   culprit and the re-chaining cancels the (longer) upstream expectations
   before they would falsely fire — BChain's position-scaled timeouts. *)
let expect_ack t ~from ~slot =
  let epoch = t.cepoch in
  let len = List.length t.chain in
  let pos = match position t with Some i -> i | None -> 0 in
  let timeout = t.config.initial_timeout * (len - pos) in
  Detector.expect (fd t) ~from ~tag:"ack" ~timeout (fun m ->
      match m.Chain_msg.body with
      | Chain_msg.Ack { aslot; aepoch } -> aslot = slot && aepoch = epoch
      | _ -> false)

(* Forward deadlines grow with chain position: a request reaches position i
   after i hops, and on a break the node just past it times out first —
   blame lands on the break, and the re-chaining cancels the (longer)
   downstream expectations. *)
let expect_forward_request t ~from ~position (request : Chain_msg.request) =
  let timeout = t.config.initial_timeout * max 1 position in
  Detector.expect (fd t) ~from ~tag:"forward" ~timeout (fun m ->
      match m.Chain_msg.body with
      | Chain_msg.Forward f -> f.Chain_msg.request = request
      | _ -> false)

let commit t key =
  let s = slot_state t key in
  if not s.committed then begin
    s.committed <- true;
    match s.forward with
    | Some f -> execute t f.Chain_msg.request
    | None -> ()
  end

(* Pass a forward along the chain (or start the ack wave at the tail). *)
let relay t (f : Chain_msg.forward) =
  match successor t with
  | Some next ->
    send t ~dst:next (Chain_msg.Forward f);
    expect_ack t ~from:next ~slot:f.Chain_msg.slot
  | None ->
    (* Tail: commit and start the ack wave. *)
    commit t (t.cepoch, f.Chain_msg.slot);
    (match predecessor t with
     | Some prev ->
       send t ~dst:prev (Chain_msg.Ack { aslot = f.Chain_msg.slot; aepoch = t.cepoch })
     | None -> ())

let propose t (request : Chain_msg.request) =
  let key = (request.Chain_msg.client, request.Chain_msg.rid) in
  Hashtbl.replace t.proposed key ();
  let slot = t.next_slot in
  t.next_slot <- slot + 1;
  let f =
    {
      Chain_msg.slot;
      cepoch = t.cepoch;
      request;
      hsig =
        Chain_msg.sign_head (Shell.auth t.sh) ~head:(me t) ~slot ~cepoch:t.cepoch request;
    }
  in
  let s = slot_state t (t.cepoch, slot) in
  s.forward <- Some f;
  if List.length t.chain = 1 then commit t (t.cepoch, slot) else relay t f

(* No early return on local execution: the head may have executed in an
   earlier chain configuration while current members have not — it must
   still re-propose. Exactly-once execution is enforced at [execute]. *)
let submit t request =
  let key = (request.Chain_msg.client, request.Chain_msg.rid) in
  if is_head t then begin
    if not (Hashtbl.mem t.proposed key) then propose t request
  end
  else if in_chain t then begin
    (* Every member guards its own upstream link: if the forward never
       arrives, the predecessor is suspected. Without this, a break right
       after the single watching node would go undetected (e.g. a mute head
       whose successor is also mute). *)
    match (predecessor t, position t) with
    | Some pred, Some pos when not (Hashtbl.mem t.awaiting_forward key) ->
      Hashtbl.replace t.awaiting_forward key ();
      expect_forward_request t ~from:pred ~position:pos request
    | _ -> ()
  end

let handle_forward t ~src (f : Chain_msg.forward) =
  if
    in_chain t
    && predecessor t = Some src
    && f.Chain_msg.cepoch = t.cepoch
    && Chain_msg.verify_head (Shell.auth t.sh) ~head:(head t) f
  then begin
    let s = slot_state t (t.cepoch, f.Chain_msg.slot) in
    match s.forward with
    | Some stored when stored.Chain_msg.request <> f.Chain_msg.request ->
      (* The head signed two bindings for one slot in one epoch. *)
      Detector.detected (fd t) (head t)
    | Some _ -> ()
    | None ->
      s.forward <- Some f;
      relay t f
  end

let handle_ack t ~src (aslot, aepoch) =
  if in_chain t && successor t = Some src && aepoch = t.cepoch then begin
    commit t (t.cepoch, aslot);
    match predecessor t with
    | Some prev -> send t ~dst:prev (Chain_msg.Ack { aslot; aepoch })
    | None -> () (* head: wave complete *)
  end

let on_quorum t quorum =
  if quorum <> t.chain then begin
    t.cepoch <- t.cepoch + 1;
    t.chain <- quorum;
    Detector.cancel_all (fd t);
    Hashtbl.reset t.awaiting_forward;
    (* Uncommitted in-flight slots die with the old chain; clients
       resubmit, and execution dedupes on request id. *)
    Hashtbl.reset t.proposed
  end

let process t ~src msg =
  match msg.Chain_msg.body with
  | Chain_msg.Forward f -> handle_forward t ~src f
  | Chain_msg.Ack { aslot; aepoch } -> handle_ack t ~src (aslot, aepoch)
  | Chain_msg.Qsel update -> Shell.update t.sh update

let receive t = Shell.receive t.sh

(* The model checker's key for this node: chain, chain epoch, next slot, the
   executed requests in order, every slot's forward and commit mark, the
   proposal and wait tables, then the shell's part. *)
let write_key t key =
  let module K = Qs_stdx.State_key in
  let module Smr = Qs_sim.Smr_cluster in
  K.add_pids key t.chain;
  K.add key t.cepoch;
  K.add key t.next_slot;
  K.add_list key (Smr.write_id key) (Shell.executed t.sh);
  K.add_table key t.slots (fun (epoch, slot) s ->
      K.add key epoch;
      K.add key slot;
      (match s.forward with
       | None -> K.add key 0
       | Some f ->
         K.add key 1;
         Smr.write_id key f.Chain_msg.request);
      K.add_bool key s.committed);
  Smr.write_id_table key t.proposed ignore;
  Smr.write_id_table key t.awaiting_forward ignore;
  Shell.write_key t.sh key

let create config ~me ~auth ~sim ~net_send ?(on_execute = fun _ -> ()) () =
  if config.n <= 0 || config.f < 0 || config.n - config.f <= config.f then
    invalid_arg "Chain_node.create: need n - f > f";
  let sh =
    Shell.create ~who:"Chain_node.create" ~n:config.n ~me ~auth ~sim ~net_send
      ~seal:Chain_msg.seal ~verify:Chain_msg.verify
      ~sender:(fun m -> m.Chain_msg.sender)
      ~initial_timeout:config.initial_timeout config.timeout_strategy
  in
  let t =
    {
      config;
      sh;
      on_execute;
      chain = List.init (config.n - config.f) (fun i -> i);
      cepoch = 0;
      slots = Hashtbl.create 64;
      next_slot = 0;
      proposed = Hashtbl.create 64;
      awaiting_forward = Hashtbl.create 64;
    }
  in
  Shell.start sh ~deliver:(process t)
    (Shell.Select
       { f = config.f; wrap = (fun u -> Chain_msg.Qsel u); on_quorum = on_quorum t });
  t
