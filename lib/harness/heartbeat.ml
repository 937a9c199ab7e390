module Sim = Qs_sim.Sim
module Network = Qs_sim.Network
module Stime = Qs_sim.Stime
module Detector = Qs_fd.Detector
module Timeout = Qs_fd.Timeout
module QS = Qs_core.Quorum_select
module Pid = Qs_core.Pid
module Auth = Qs_crypto.Auth
module Shell = Qs_shell.Shell

type config = {
  n : int;
  f : int;
  heartbeat_period : Stime.t;
  initial_timeout : Stime.t;
  timeout_strategy : Timeout.strategy;
}

type body = Beat of { seq : int } | Qsel of Qs_core.Msg.t

type msg = { sender : Pid.t; body : body; signature : Auth.signature }

let encode_body = function
  | Beat { seq } -> Printf.sprintf "BEAT|%d" seq
  | Qsel m ->
    "Q:" ^ Qs_core.Msg.encode m.Qs_core.Msg.update ^ "#"
    ^ Qs_crypto.Sha256.hex m.Qs_core.Msg.signature

let seal auth ~sender body =
  { sender; body; signature = Auth.sign auth ~signer:sender (encode_body body) }

let verify auth m = Auth.verify auth ~signer:m.sender (encode_body m.body) m.signature

type t = {
  config : config;
  sim : Sim.t;
  net : msg Network.t;
  auth : Auth.t;
  shells : (body, msg) Shell.t array;
  crashed_at : Stime.t option array;
  quorum_times : (Stime.t * Pid.t list) list array; (* each reversed *)
  omissions : (Pid.t * Pid.t, Stime.t) Hashtbl.t;
  mutable rounds_scheduled : bool;
}

(* A scheduled crash: [p] is down from its crash time on. *)
let down sim crashed_at p =
  match crashed_at.(p) with
  | Some at -> Stime.compare (Sim.now sim) at >= 0
  | None -> false

let create ?(seed = 1L) ?(delay = Network.Fixed (Stime.of_ms 1)) config =
  QS.validate_config { QS.n = config.n; f = config.f };
  let sim = Sim.create ~seed () in
  let net = Network.create ~sim ~n:config.n ~delay () in
  let auth = Auth.create config.n in
  let crashed_at = Array.make config.n None in
  let quorum_times = Array.make config.n [] in
  let shells =
    Array.init config.n (fun me ->
        let sh =
          Shell.create ~who:"Heartbeat.create" ~n:config.n ~me ~auth ~sim
            ~net_send:(fun ~dst m ->
              if not (down sim crashed_at me) then Network.send net ~src:me ~dst m)
            ~seal ~verify
            ~sender:(fun m -> m.sender)
            ~initial_timeout:config.initial_timeout config.timeout_strategy
        in
        Shell.start sh
          ~deliver:(fun ~src:_ m ->
            match m.body with Beat _ -> () | Qsel update -> Shell.update sh update)
          (Shell.Select
             {
               f = config.f;
               wrap = (fun u -> Qsel u);
               on_quorum =
                 (fun quorum ->
                   quorum_times.(me) <- (Sim.now sim, quorum) :: quorum_times.(me));
             });
        Network.set_handler net me (fun ~src m ->
            if not (down sim crashed_at me) then Shell.receive sh ~src m);
        sh)
  in
  let omissions = Hashtbl.create 8 in
  ignore
    (Network.add_filter net (fun ~now ~src ~dst _ ->
         match Hashtbl.find_opt omissions (src, dst) with
         | Some from when Stime.compare now from >= 0 -> Network.Drop
         | _ -> Network.Deliver)
      : Network.filter_id);
  {
    config;
    sim;
    net;
    auth;
    shells;
    crashed_at;
    quorum_times;
    omissions;
    rounds_scheduled = false;
  }

let sim t = t.sim

let crash t p at = t.crashed_at.(p) <- Some at

let omit_link t ~src ~dst ~from = Hashtbl.replace t.omissions (src, dst) from

(* Compile a fault schedule onto the heartbeat network. Only the
   [Equivocate] hook needs protocol knowledge here: the armed process's own
   suspicion rows are replaced, per destination, by a re-signed variant that
   inflates a fake suspicion of the recipient. The inflation is capped at 1
   (not a counter bump) so re-merged variants reach a fixed point and the
   cluster quiesces — the max-merge absorbs the union of the claims. *)
let inject t schedule =
  let equivocate ~src ~dst m =
    match m.body with
    | Qsel qm when qm.Qs_core.Msg.update.Qs_core.Msg.owner = src && dst <> src ->
      let u = qm.Qs_core.Msg.update in
      let row = Array.copy u.Qs_core.Msg.row in
      row.(dst) <- max row.(dst) 1;
      Some (seal t.auth ~sender:src (Qsel (Qs_core.Msg.seal t.auth { u with Qs_core.Msg.row = row })))
    | _ -> None
  in
  ignore (Qs_faults.Injector.install ~net:t.net ~equivocate schedule : Qs_faults.Injector.t)

(* One heartbeat round: everyone alive broadcasts a beat and expects the
   next beat from every peer. *)
let schedule_rounds t ~until =
  let period = t.config.heartbeat_period in
  let rounds = until / period in
  let everyone = List.init t.config.n Fun.id in
  for k = 1 to rounds do
    Sim.schedule_at t.sim ~at:(k * period) (fun () ->
        Array.iteri
          (fun me sh ->
            if not (down t.sim t.crashed_at me) then begin
              Shell.multicast sh everyone (Beat { seq = k });
              for peer = 0 to t.config.n - 1 do
                if peer <> me then
                  Detector.expect (Shell.detector sh) ~from:peer ~tag:"beat" (fun m ->
                      match m.body with Beat { seq } -> seq >= k | Qsel _ -> false)
              done
            end)
          t.shells)
  done

let run ?(until = Stime.of_ms 2000) t =
  if not t.rounds_scheduled then begin
    t.rounds_scheduled <- true;
    schedule_rounds t ~until
  end;
  Sim.run ~until t.sim

let selector t p = Option.get (Shell.selector t.shells.(p))

let agreed_quorum t ~correct =
  match correct with
  | [] -> None
  | first :: rest ->
    let quorum = QS.last_quorum (selector t first) in
    if List.for_all (fun p -> QS.last_quorum (selector t p) = quorum) rest then
      Some quorum
    else None

let convergence_time t ~correct ~expect_excluded =
  match agreed_quorum t ~correct with
  | None -> None
  | Some quorum ->
    if List.exists (fun x -> List.mem x quorum) expect_excluded then None
    else begin
      (* Latest time any correct process issued its final quorum. *)
      let latest =
        List.fold_left
          (fun acc p ->
            match t.quorum_times.(p) with
            | (at, _) :: _ -> Stime.max acc at
            | [] -> acc)
          Stime.zero correct
      in
      Some latest
    end

let quorum_changes t ~correct =
  List.fold_left (fun acc p -> max acc (QS.quorums_issued (selector t p))) 0 correct

let false_suspicion_total t ~correct =
  List.fold_left
    (fun acc p -> acc + Detector.false_suspicions (Shell.detector t.shells.(p)))
    0 correct

let matrices_agree t ~correct =
  match correct with
  | [] -> true
  | first :: rest ->
    let reference = QS.matrix (selector t first) in
    List.for_all
      (fun p -> Qs_core.Suspicion_matrix.equal reference (QS.matrix (selector t p)))
      rest
