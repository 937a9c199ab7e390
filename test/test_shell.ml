(* The replica shell (Qs_shell.Shell) under each of the five protocol stacks:
   link faults, self-delivery, the sender = source check, forged tags, the
   create-time auth check in every mode and exactly-once execution, written
   once as a table of cases and run against XPaxos, PBFT, MinBFT, chain and
   star through their public replica APIs. *)

module Pid = Qs_core.Pid
module Auth = Qs_crypto.Auth
module Sim = Qs_sim.Sim
module Stime = Qs_sim.Stime
module Smr = Qs_sim.Smr_cluster
module Detector = Qs_fd.Detector
module Timeout = Qs_fd.Timeout
module Shell = Qs_shell.Shell

let check_int = Alcotest.(check int)
let check_ilist = Alcotest.(check (list int))

let ms = Stime.of_ms

let timeout = ms 50

let strategy = Timeout.Exponential { factor = 2.0; max = ms 2000 }

let request = { Smr.client = 3; rid = 7; op = "once" }

(* One stack as the table sees it: a replica of [n] processes at f = 1,
   created in a named mode ([selecting] = the mode running a selector). *)
module type STACK = sig
  val name : string

  val who : string
  (** prefix of the stack's create-time errors *)

  val n : int

  val modes : (string * bool) list

  type t

  type msg

  val create :
    selecting:bool ->
    Auth.t ->
    me:Pid.t ->
    sim:Sim.t ->
    net_send:(dst:Pid.t -> msg -> unit) ->
    on_execute:(Smr.request -> unit) ->
    t

  val set_fault : t -> Shell.fault -> unit

  val receive : t -> src:Pid.t -> msg -> unit

  val detector : t -> msg Detector.t

  val executed : t -> Smr.request list

  val inert : Auth.t -> sender:Pid.t -> msg
  (** A validly sealed frame the protocol ignores at process 0. *)

  val redelivery : (Auth.t -> (Pid.t * msg) list) option
  (** For the exactly-once stacks: frames (with their link source) that
      make process 1, created just before, execute [request] in two
      slots. *)
end

module Cases (X : STACK) = struct
  let selecting = List.exists snd X.modes

  let make ?(auth = Auth.create X.n) ?(me = 0) ?(on_execute = ignore) ~selecting () =
    let sim = Sim.create () in
    let sent = ref [] in
    let r =
      X.create ~selecting auth ~me ~sim
        ~net_send:(fun ~dst _ -> sent := dst :: !sent)
        ~on_execute
    in
    (r, sim, sent)

  (* A suspicion of p1 at p0 makes the selector broadcast one UPDATE (to
     all n including self) and send nothing else: the destinations of that
     one broadcast under the given link fault. *)
  let broadcast_dsts fault =
    let r, sim, sent = make ~selecting () in
    X.set_fault r fault;
    Detector.expect (X.detector r) ~from:1 ~timeout:(ms 1) (fun _ -> false);
    Sim.run ~until:(ms 5) sim;
    List.sort compare !sent

  let all = List.init X.n Fun.id

  let test_broadcast () = check_ilist "reaches all n" all (broadcast_dsts Shell.Honest)

  let test_mute () = check_ilist "self only" [ 0 ] (broadcast_dsts Shell.Mute)

  let test_omit () =
    check_ilist "all but p2" (List.filter (( <> ) 2) all) (broadcast_dsts (Shell.Omit_to [ 2 ]))

  (* Expectations on p1 and p2 at p0; [frame] arrives on link [src]. *)
  let deliver ~src frame =
    let r, _, _ = make ~selecting () in
    let d = X.detector r in
    Detector.expect d ~from:1 (fun _ -> true);
    Detector.expect d ~from:2 (fun _ -> true);
    X.receive r ~src frame;
    (Detector.open_expectations d, Detector.rejected_messages d)

  let test_sender_is_source () =
    let frame = X.inert (Auth.create X.n) ~sender:2 in
    check_int "control: fulfils p2's expectation" 1 (fst (deliver ~src:2 frame));
    let open_, rejected = deliver ~src:1 frame in
    check_int "replayed on p1's link: fulfils nothing" 2 open_;
    check_int "dropped before the detector" 0 rejected

  let test_forged_tag () =
    let forged = X.inert (Auth.create ~master:"not-the-directory" X.n) ~sender:2 in
    let open_, rejected = deliver ~src:2 forged in
    check_int "forged: fulfils nothing" 2 open_;
    check_int "dropped before the detector" 0 rejected

  let test_auth_covers_n () =
    List.iter
      (fun (mode, selecting) ->
        Alcotest.check_raises mode (Invalid_argument (X.who ^ ": auth universe too small"))
          (fun () -> ignore (make ~auth:(Auth.create (X.n - 1)) ~me:(X.n - 1) ~selecting ())))
      X.modes

  let test_exactly_once () =
    match X.redelivery with
    | None -> ()
    | Some frames ->
      let runs = ref 0 in
      let auth = Auth.create X.n in
      let r, _, _ = make ~auth ~me:1 ~selecting ~on_execute:(fun _ -> incr runs) () in
      List.iter (fun (src, m) -> X.receive r ~src m) (frames auth);
      check_int "on_execute once" 1 !runs;
      check_int "executed once" 1 (List.length (X.executed r))

  let suite =
    ( X.name,
      List.map
        (fun (name, f) -> Alcotest.test_case name `Quick f)
        ([
         ("broadcast reaches all n", test_broadcast);
         ("mute still delivers to self", test_mute);
         ("omit_to drops only its links", test_omit);
         ("sealed sender must be the link source", test_sender_is_source);
         ("forged tag dropped before the detector", test_forged_tag);
         ("create rejects small auth in every mode", test_auth_covers_n);
         ]
        @
        if Option.is_none X.redelivery then []
        else [ ("redelivery executes once", test_exactly_once) ]) )
end

module Xpaxos = struct
  open Qs_xpaxos

  let name = "xpaxos"
  let who = "Replica.create"
  let n = 3
  let modes = [ ("enumeration", false); ("quorum selection", true) ]

  type t = Replica.t
  type msg = Xmsg.t

  let create ~selecting auth ~me ~sim ~net_send ~on_execute =
    Replica.create
      {
        Replica.n;
        f = 1;
        mode = (if selecting then Replica.Quorum_selection else Replica.Enumeration);
        initial_timeout = timeout;
        timeout_strategy = strategy;
      }
      ~me ~auth ~sim ~net_send
      ~on_execute:(fun ~slot:_ r -> on_execute r)
      ()

  let set_fault r (f : Shell.fault) =
    Replica.set_fault r
      (match f with Honest -> Replica.Honest | Mute -> Mute | Omit_to vs -> Omit_to vs)

  let receive = Replica.receive
  let detector = Replica.detector
  let executed = Replica.executed
  let inert auth ~sender = Xmsg.seal auth ~sender (Xmsg.Suspect { sview = -1 })
  let redelivery = None
end

module Pbft = struct
  open Qs_pbft

  let name = "pbft"
  let who = "Preplica.create"
  let n = 4
  let modes = [ ("full", false); ("selected", true) ]

  type t = Preplica.t
  type msg = Pmsg.t

  let create ~selecting auth ~me ~sim ~net_send ~on_execute =
    Preplica.create
      {
        Preplica.n;
        f = 1;
        participation = (if selecting then Preplica.Selected else Preplica.Full);
        initial_timeout = timeout;
        timeout_strategy = strategy;
      }
      ~me ~auth ~sim ~net_send
      ~on_execute:(fun ~slot:_ r -> on_execute r)
      ()

  let set_fault = Preplica.set_fault
  let receive = Preplica.receive
  let detector = Preplica.detector
  let executed = Preplica.executed

  let inert auth ~sender =
    Pmsg.seal auth ~sender (Pmsg.Commit { view = 99; slot = 0; cdigest = "" })

  let redelivery = None
end

module Minbft = struct
  open Qs_minbft

  let name = "minbft"
  let who = "Mreplica.create"
  let n = 3
  let modes = [ ("full", false); ("selected", true) ]

  type t = Mreplica.t
  type msg = Mmsg.t

  (* The trusted components of the replica created last: its peers' USIGs
     certify the redelivered PREPAREs. *)
  let usigs = ref [||]

  let create ~selecting auth ~me ~sim ~net_send ~on_execute =
    let usig_directory, u = Usig.setup ~n in
    usigs := u;
    Mreplica.create
      {
        Mreplica.n;
        f = 1;
        participation = (if selecting then Mreplica.Selected else Mreplica.Full);
        initial_timeout = timeout;
        timeout_strategy = strategy;
      }
      ~me ~auth ~usig:u.(me) ~usig_directory ~sim ~net_send ~on_execute ()

  let set_fault = Mreplica.set_fault
  let receive = Mreplica.receive
  let detector = Mreplica.detector
  let executed = Mreplica.executed

  let inert auth ~sender =
    let ui = { Usig.origin = sender; counter = 0; usig_sig = "" } in
    let p = { Mmsg.pview = 99; pslot = 0; prequest = request; pui = ui } in
    Mmsg.seal auth ~sender (Mmsg.Commit { cprepare = p; cui = ui })

  (* The primary p0 binds [request] to slots 0 and 1 of epoch 0; with p1's
     own COMMIT each slot reaches f + 1 contributors at p1. *)
  let prepare slot =
    let digest = Mmsg.digest_of ~view:0 ~slot request in
    Mmsg.Prepare
      { pview = 0; pslot = slot; prequest = request; pui = Usig.certify !usigs.(0) ~digest }

  let redelivery =
    Some (fun auth -> List.map (fun slot -> (0, Mmsg.seal auth ~sender:0 (prepare slot))) [ 0; 1 ])
end

module Chain = struct
  open Qs_bchain

  let name = "chain"
  let who = "Chain_node.create"
  let n = 3
  let modes = [ ("quorum selection", true) ]

  type t = Chain_node.t
  type msg = Chain_msg.t

  let create ~selecting:_ auth ~me ~sim ~net_send ~on_execute =
    Chain_node.create
      { Chain_node.n; f = 1; initial_timeout = timeout; timeout_strategy = strategy }
      ~me ~auth ~sim ~net_send ~on_execute ()

  let set_fault = Chain_node.set_fault
  let receive = Chain_node.receive
  let detector = Chain_node.detector
  let executed = Chain_node.executed
  let inert auth ~sender = Chain_msg.seal auth ~sender (Chain_msg.Ack { aslot = 0; aepoch = 99 })

  (* Chain [p0; p1]: p1 is the tail, so each forward from the head commits
     there at once. *)
  let forward auth slot =
    let hsig = Chain_msg.sign_head auth ~head:0 ~slot ~cepoch:0 request in
    (0, Chain_msg.seal auth ~sender:0 (Chain_msg.Forward { slot; cepoch = 0; request; hsig }))

  let redelivery = Some (fun auth -> [ forward auth 0; forward auth 1 ])
end

module Star = struct
  open Qs_star

  let name = "star"
  let who = "Star_node.create"
  let n = 4
  let modes = [ ("follower selection", true) ]

  type t = Star_node.t
  type msg = Star_msg.t

  let create ~selecting:_ auth ~me ~sim ~net_send ~on_execute =
    Star_node.create
      { Star_node.n; f = 1; initial_timeout = timeout; timeout_strategy = strategy }
      ~me ~auth ~sim ~net_send ~on_execute ()

  let set_fault = Star_node.set_fault
  let receive = Star_node.receive
  let detector = Star_node.detector
  let executed = Star_node.executed
  let inert auth ~sender = Star_msg.seal auth ~sender (Star_msg.Ack { aslot = 0; aepoch = 99 })

  (* Leader p0 leads [request] in slots 0 and 1 and applies both at
     follower p1. *)
  let lead_and_apply auth slot =
    let lsig = Star_msg.sign_lead auth ~leader:0 ~slot ~qepoch:0 request in
    [
      (0, Star_msg.seal auth ~sender:0 (Star_msg.Lead { slot; qepoch = 0; request; lsig }));
      (0, Star_msg.seal auth ~sender:0 (Star_msg.Apply { pslot = slot; pepoch = 0 }));
    ]

  let redelivery = Some (fun auth -> lead_and_apply auth 0 @ lead_and_apply auth 1)
end

module X = Cases (Xpaxos)
module P = Cases (Pbft)
module M = Cases (Minbft)
module C = Cases (Chain)
module S = Cases (Star)

let () = Alcotest.run "shell" [ X.suite; P.suite; M.suite; C.suite; S.suite ]
