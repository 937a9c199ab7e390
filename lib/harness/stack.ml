(* One descriptor per protocol stack: everything the harnesses (chaos
   campaigns, the recovery experiment, the model checker, [simulate]) need to build,
   fault and inspect a stack, so each of them is one generic function over
   a list of descriptors. Only what genuinely differs between stacks lives
   here; the simulated cluster itself is {!Qs_sim.Smr_cluster}. Like
   {!Qs_sim.Smr_cluster} this is mostly types and signatures, so it has no
   separate interface file. *)

module Stime = Qs_sim.Stime
module Pid = Qs_core.Pid
module Msg = Qs_core.Msg
module QS = Qs_core.Quorum_select
module FS = Qs_follower.Follower_select
module Fmsg = Qs_follower.Fmsg
module Auth = Qs_crypto.Auth
module Rejoin = Qs_recovery.Rejoin
module Suspicion_matrix = Qs_core.Suspicion_matrix
module Monitor = Qs_faults.Monitor

(** The failure-detector timeouts every stack runs with unless an
    experiment sweeps them: 25 ms, doubling up to 2 s. *)
let initial_timeout = Stime.of_ms 25

let timeout_strategy = Qs_fd.Timeout.Exponential { factor = 2.0; max = Stime.of_ms 2000 }

(* Five requests submitted at once to a fresh cluster, run until quiet:
   how many committed. [Invalid_argument] unless all did. *)
let happy_run (type c) (module C : Qs_sim.Smr_cluster.S with type t = c) c =
  let requests = List.init 5 (fun i -> C.submit c (Printf.sprintf "op%d" i)) in
  C.run c;
  if not (List.for_all (C.is_committed c) requests) then invalid_arg "happy run failed";
  List.length requests

(** The messages sent per request in a happy run: five requests submitted
    at once to a fresh cluster, run until quiet. [Invalid_argument] unless
    all commit. *)
let messages_per_request (type c) (module C : Qs_sim.Smr_cluster.S with type t = c) c =
  let commits = happy_run (module C) c in
  C.message_count c / commits

(** The same happy run's signing work, counted on the calling domain, and
    its number of commits. *)
let signing_per_request (type c) (module C : Qs_sim.Smr_cluster.S with type t = c) c =
  let before = Qs_crypto.Counters.read () in
  let commits = happy_run (module C) c in
  (Qs_crypto.Counters.since before, commits)

(** One request on a fresh cluster, run until quiet: its commit latency. *)
let commit_latency (type c) (module C : Qs_sim.Smr_cluster.S with type t = c) c =
  let r = C.submit c "lat" in
  C.run c;
  Option.get (C.commit_latency c r)

(** [Baseline] is the stack without quorum selection where one exists:
    XPaxos's enumeration of all groups, PBFT's and MinBFT's full
    participation. Chain and star always select and ignore it. *)
type variant = Baseline | Selecting

(** One process's selector — Algorithm 1's {!QS} or Algorithm 2's {!FS} —
    seen through the operations the recovery, evidence and churn planes
    use. *)
type selector = {
  matrix : unit -> Suspicion_matrix.t;
  epoch : unit -> int;
  absorb : matrix:Suspicion_matrix.t -> epoch:int -> unit;
  amnesia : unit -> unit;
  reevaluate : unit -> unit;
  exclude : Pid.t -> unit;
  reconfigure : QS.config -> me:Pid.t -> cepoch:int -> unit;
      (** width-preserving: identity slot remap *)
  set_policy : Qs_core.Selection_policy.t -> unit;
  algorithm1 : QS.t option;
      (** the instance itself under Algorithm 1, for the model checker's
          per-state selector checks *)
}

let of_qs s =
  {
    matrix = (fun () -> QS.matrix s);
    epoch = (fun () -> QS.epoch s);
    absorb = QS.absorb s;
    amnesia = (fun () -> QS.amnesia s);
    reevaluate = (fun () -> QS.reevaluate s);
    exclude = QS.exclude s;
    reconfigure =
      (fun config ~me ~cepoch -> QS.reconfigure s config ~me ~cepoch ~of_new:Fun.id);
    set_policy = QS.set_policy s;
    algorithm1 = Some s;
  }

let of_fs s =
  {
    matrix = (fun () -> FS.matrix s);
    epoch = (fun () -> FS.epoch s);
    absorb = FS.absorb s;
    amnesia = (fun () -> FS.amnesia s);
    reevaluate = (fun () -> FS.reevaluate s);
    exclude = FS.exclude s;
    reconfigure =
      (fun config ~me ~cepoch -> FS.reconfigure s config ~me ~cepoch ~of_new:Fun.id);
    set_policy = FS.set_policy s;
    algorithm1 = None;
  }

(** Durable state beyond the selector, restored across an amnesia crash
    and carried by rejoin payloads. Only XPaxos models it (view, committed
    log prefix, adapted timeouts); the other stacks' SMR logs are durable
    by default and their rejoin payload is the selection state alone. *)
type durable = {
  collect : Pid.t -> Rejoin.payload;
  adopt : Pid.t -> matrix:Suspicion_matrix.t -> epoch:int -> extra:string -> unit;
  wipe : Pid.t -> Rejoin.payload option;
      (** amnesia-crash the process; returns its durable snapshot, if any *)
}

(** The protocol-speaking commission-fault hooks of {!Qs_faults.Injector},
    plus [extract], which hands the evidence plane the signed suspicion row
    a frame carries. *)
type 'm commission = {
  extract : 'm -> Msg.t option;
  equivocate : src:Pid.t -> dst:Pid.t -> 'm -> 'm option;
  slander : src:Pid.t -> victim:Pid.t -> 'm option;
  tamper : 'm -> 'm;
}

module type STACK = sig
  module C : Qs_sim.Smr_cluster.S with type request = Qs_sim.Smr_cluster.request

  val name : string
  (** The family name [simulate] reports under. *)

  val default_n : f:int -> int
  (** The smallest cluster the protocol tolerates [f] faults with. *)

  val quorum_bound : f:int -> int * string
  (** The per-epoch bound on issued quorums — Theorem 3's [f(f+1)] for
      Algorithm 1, Theorem 9's [3f+1] for Follower Selection — and the
      gauge that carries the live maximum. *)

  val create : n:int -> f:int -> seed:int64 -> variant -> C.t
  (** Default 1 ms links and {!initial_timeout}/{!timeout_strategy}. *)

  val set_mute : C.t -> Pid.t -> bool -> unit

  val selector : C.t -> Pid.t -> selector option
  (** [None] when the variant runs without selection. *)

  val detector : C.t -> Pid.t -> C.msg Qs_fd.Detector.t

  val deep_durability : (C.t -> durable) option
  (** Attach per-process durable stores and expose them; [None] (every
      stack but XPaxos) means the selection state is all that persists. *)

  val commission : Auth.t -> n:int -> C.msg commission

  val churn_min_n : n:int -> f:int -> int option
  (** Membership floor override; [None] keeps the generic one. *)

  val summary : C.t -> string
  (** The tail of [simulate]'s one-line report. *)
end

type t = (module STACK)

(* The row a slanderer [src] pins on [victim]: maximal suspicion of [src]
   itself, which [victim] never signed. *)
let slandered_row ~n ~src ~victim =
  { Msg.owner = victim; row = Array.init n (fun k -> if k = src then 999 else 0) }

(* The commission hooks for a stack whose suspicion rows travel as a
   [Qsel of Msg.t] body inside a sealed (sender, body, signature) envelope.
   [row_of] projects the signed UPDATE out of a frame, [wrap] seals a fresh
   envelope around one, [corrupt] invalidates an envelope's own tag. *)
let qsel_commission ~row_of ~wrap ~sender_of ~corrupt auth ~n =
  let wrap = wrap auth in
  (* Equivocation: replace src's own row with a destination-specific
     variant re-signed under its own key. Bumping coordinate [dst] makes
     any two variants for different destinations pointwise incomparable,
     so a store holding one variant convicts on the first forwarded copy
     of another. *)
  let equivocate ~src ~dst m =
    match row_of m with
    | Some qm when qm.Msg.update.Msg.owner = src ->
      let u = qm.Msg.update in
      let row = Array.copy u.Msg.row in
      row.(dst) <- row.(dst) + 1;
      Some (wrap ~sender:src (Msg.seal auth { u with Msg.row = row }))
    | _ -> None
  in
  (* Slander: a frame claiming [victim] signed a row it never produced.
     The tag cannot be forged (Section IV), so receivers reject it and
     blame the channel — the victim stays clean. *)
  let slander ~src ~victim =
    let u = slandered_row ~n ~src ~victim in
    let forged = Auth.forge auth ~claimed:victim (Msg.encode u) in
    Some (wrap ~sender:src { Msg.update = u; signature = forged.Auth.signature })
  in
  (* Tampering: flip a row entry and leave the owner's tag stale —
     receivers verify and drop, the evidence store quarantines the channel
     and leaves the claimed owner unblamed. Frames without a row get their
     envelope tag corrupted instead (rejected wholesale on receipt). *)
  let tamper m =
    match row_of m with
    | Some qm ->
      let u = qm.Msg.update in
      let row = Array.copy u.Msg.row in
      row.(0) <- row.(0) + 1;
      wrap ~sender:(sender_of m) { qm with Msg.update = { u with Msg.row = row } }
    | None -> corrupt m
  in
  { extract = row_of; equivocate; slander; tamper }

let last_replica replicas = replicas.(Array.length replicas - 1)

let xpaxos : t =
  (module struct
    module C = Qs_xpaxos.Xcluster
    module Replica = Qs_xpaxos.Replica
    module Xmsg = Qs_xpaxos.Xmsg

    let name = "xpaxos"

    let default_n ~f = (2 * f) + 1


    let quorum_bound ~f = (Monitor.theorem3 ~f, "qs_quorums_per_epoch_max")

    let create ~n ~f ~seed variant =
      let mode =
        if variant = Baseline then Replica.Enumeration else Replica.Quorum_selection
      in
      C.create ~seed { Replica.n; f; mode; initial_timeout; timeout_strategy }

    let set_mute c p m = C.set_fault c p (if m then Replica.Mute else Replica.Honest)

    let selector c p = Option.map of_qs (Replica.quorum_selector (C.replica c p))

    let detector c p = Replica.detector (C.replica c p)

    (* Deep durability: view, committed log prefix, selection state and
       adapted timeouts persist (fsynced at execute) and survive amnesia. *)
    let deep_durability =
      Some
        (fun c ->
          C.attach_durability c;
          {
            collect = C.collect_payload c;
            adopt = C.adopt_payload c;
            wipe = (fun p -> Some (C.amnesia c p));
          })

    let commission =
      qsel_commission
        ~row_of:(fun (m : Xmsg.t) ->
          match m.body with Xmsg.Qsel qm -> Some qm | _ -> None)
        ~wrap:(fun auth ~sender qm -> Xmsg.seal auth ~sender (Xmsg.Qsel qm))
        ~sender_of:(fun m -> m.Xmsg.sender)
        ~corrupt:(fun m -> { m with Xmsg.signature = "" })

    let churn_min_n ~n:_ ~f:_ = None

    let summary c =
      Printf.sprintf ", max view %d, final group %s" (C.max_view c)
        (Pid.set_to_string (Replica.group (last_replica (C.replicas c))))
  end)

let pbft : t =
  (module struct
    module C = Qs_pbft.Pcluster
    module Preplica = Qs_pbft.Preplica
    module Pmsg = Qs_pbft.Pmsg

    let name = "pbft"

    let default_n ~f = (3 * f) + 1


    let quorum_bound ~f = (Monitor.theorem3 ~f, "qs_quorums_per_epoch_max")

    let create ~n ~f ~seed variant =
      let participation =
        if variant = Baseline then Preplica.Full else Preplica.Selected
      in
      C.create ~seed { Preplica.n; f; participation; initial_timeout; timeout_strategy }

    let set_mute c p m = C.set_fault c p (if m then Preplica.Mute else Preplica.Honest)

    let selector c p = Option.map of_qs (Preplica.quorum_selector (C.replica c p))

    let detector c p = Preplica.detector (C.replica c p)

    let deep_durability = None

    let commission =
      qsel_commission
        ~row_of:(fun (m : Pmsg.t) ->
          match m.body with Pmsg.Qsel qm -> Some qm | _ -> None)
        ~wrap:(fun auth ~sender qm -> Pmsg.seal auth ~sender (Pmsg.Qsel qm))
        ~sender_of:(fun m -> m.Pmsg.sender)
        ~corrupt:(fun m -> { m with Pmsg.signature = "" })

    let churn_min_n ~n:_ ~f:_ = None

    let summary c =
      Printf.sprintf ", active %s"
        (Pid.set_to_string (Preplica.participants (last_replica (C.replicas c))))
  end)

let minbft : t =
  (module struct
    module C = Qs_minbft.Mcluster
    module Mreplica = Qs_minbft.Mreplica
    module Mmsg = Qs_minbft.Mmsg

    let name = "minbft"

    let default_n ~f = (2 * f) + 1


    let quorum_bound ~f = (Monitor.theorem3 ~f, "qs_quorums_per_epoch_max")

    let create ~n ~f ~seed variant =
      let participation =
        if variant = Baseline then Mreplica.Full else Mreplica.Selected
      in
      C.create ~seed { Mreplica.n; f; participation; initial_timeout; timeout_strategy }

    let set_mute c p m = C.set_fault c p (if m then Mreplica.Mute else Mreplica.Honest)

    let selector c p = Option.map of_qs (Mreplica.quorum_selector (C.replica c p))

    let detector c p = Mreplica.detector (C.replica c p)

    let deep_durability = None

    let commission =
      qsel_commission
        ~row_of:(fun (m : Mmsg.t) ->
          match m.body with Mmsg.Qsel qm -> Some qm | _ -> None)
        ~wrap:(fun auth ~sender qm -> Mmsg.seal auth ~sender (Mmsg.Qsel qm))
        ~sender_of:(fun m -> m.Mmsg.sender)
        ~corrupt:(fun m -> { m with Mmsg.signature = "" })

    (* n = 2f+1 here, so the generic 2f+1 floor would freeze the
       membership; the binding bound is the slot-filling one. *)
    let churn_min_n ~n ~f = Some (n - f)

    let summary c =
      Printf.sprintf ", active %s"
        (Pid.set_to_string (Mreplica.active (last_replica (C.replicas c))))
  end)

let chain : t =
  (module struct
    module C = Qs_bchain.Chain_cluster
    module Chain_node = Qs_bchain.Chain_node
    module Chain_msg = Qs_bchain.Chain_msg

    let name = "chain"

    let default_n ~f = (3 * f) + 1


    let quorum_bound ~f = (Monitor.theorem3 ~f, "qs_quorums_per_epoch_max")

    let create ~n ~f ~seed _ =
      C.create ~seed { Chain_node.n; f; initial_timeout; timeout_strategy }

    let set_mute c p m =
      C.set_fault c p (if m then Chain_node.Mute else Chain_node.Honest)

    let selector c p = Some (of_qs (Chain_node.quorum_selector (C.replica c p)))

    let detector c p = Chain_node.detector (C.replica c p)

    let deep_durability = None

    let commission =
      qsel_commission
        ~row_of:(fun (m : Chain_msg.t) ->
          match m.body with Chain_msg.Qsel qm -> Some qm | _ -> None)
        ~wrap:(fun auth ~sender qm -> Chain_msg.seal auth ~sender (Chain_msg.Qsel qm))
        ~sender_of:(fun m -> m.Chain_msg.sender)
        ~corrupt:(fun m -> { m with Chain_msg.signature = "" })

    let churn_min_n ~n:_ ~f:_ = None

    let summary c = Printf.sprintf ", chain %s" (Pid.set_to_string (C.current_chain c))
  end)

let star : t =
  (module struct
    module C = Qs_star.Star_cluster
    module Star_node = Qs_star.Star_node
    module Star_msg = Qs_star.Star_msg

    let name = "star"

    let default_n ~f = (3 * f) + 1


    let quorum_bound ~f = (Monitor.theorem9 ~f, "fs_quorums_per_epoch_max")

    let create ~n ~f ~seed _ =
      C.create ~seed { Star_node.n; f; initial_timeout; timeout_strategy }

    let set_mute c p m = C.set_fault c p (if m then Star_node.Mute else Star_node.Honest)

    let selector c p = Some (of_fs (Star_node.selector (C.replica c p)))

    let detector c p = Star_node.detector (C.replica c p)

    let deep_durability = None

    (* Star's rows travel as [Fsel (Update _)] sealed at the Fmsg layer, so
       the hooks speak Fmsg and the extractor transcodes. A row whose Fmsg
       tag verifies really was vouched for by its owner, so re-sealing it
       as a [Msg.t] attestation (same key directory, same signer) loses
       nothing and lets one evidence-store currency serve all five stacks;
       a row whose Fmsg tag fails is forwarded with a broken [Msg.t] tag so
       the store's forgery path fires. *)
    let commission auth ~n =
      let wrap ~sender fm = Star_msg.seal auth ~sender (Star_msg.Fsel fm) in
      let extract (m : Star_msg.t) =
        match m.body with
        | Star_msg.Fsel ({ Fmsg.payload = Fmsg.Update u; _ } as fm) ->
          if Fmsg.verify auth fm then Some (Msg.seal auth u)
          else Some { Msg.update = u; signature = "" }
        | _ -> None
      in
      let equivocate ~src ~dst (m : Star_msg.t) =
        match m.body with
        | Star_msg.Fsel { Fmsg.payload = Fmsg.Update u; _ } when u.Msg.owner = src ->
          let row = Array.copy u.Msg.row in
          row.(dst) <- row.(dst) + 1;
          Some (wrap ~sender:src (Fmsg.seal auth (Fmsg.Update { u with Msg.row = row })))
        | _ -> None
      in
      let slander ~src ~victim =
        let payload = Fmsg.Update (slandered_row ~n ~src ~victim) in
        let forged = Auth.forge auth ~claimed:victim (Fmsg.encode payload) in
        Some (wrap ~sender:src { Fmsg.payload; signature = forged.Auth.signature })
      in
      let tamper (m : Star_msg.t) =
        match m.body with
        | Star_msg.Fsel ({ Fmsg.payload = Fmsg.Update u; _ } as fm) ->
          let row = Array.copy u.Msg.row in
          row.(0) <- row.(0) + 1;
          wrap ~sender:m.sender
            { fm with Fmsg.payload = Fmsg.Update { u with Msg.row = row } }
        | _ -> { m with Star_msg.signature = "" }
      in
      { extract; equivocate; slander; tamper }

    let churn_min_n ~n:_ ~f:_ = None

    let summary c =
      let node = last_replica (C.replicas c) in
      Printf.sprintf ", leader %s quorum %s"
        (Pid.to_string (Star_node.leader node))
        (Pid.set_to_string (Star_node.quorum node))
  end)

(** Every stack variant [simulate] and [mc --protocol] run, by name; a row's
    first name is the one reports print, the others are aliases. *)
let variants =
  [
    ([ "xpaxos-enum" ], xpaxos, Baseline);
    ([ "xpaxos"; "xpaxos-qs" ], xpaxos, Selecting);
    ([ "pbft-full" ], pbft, Baseline);
    ([ "pbft-selected" ], pbft, Selecting);
    ([ "minbft-full" ], minbft, Baseline);
    ([ "minbft-selected" ], minbft, Selecting);
    ([ "chain" ], chain, Selecting);
    ([ "star" ], star, Selecting);
  ]

(** The row a name or alias picks, under its first name. *)
let find name =
  List.find_map
    (fun (names, stack, variant) ->
      if List.mem name names then Some (List.hd names, stack, variant) else None)
    variants
