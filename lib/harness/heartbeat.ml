module Sim = Qs_sim.Sim
module Network = Qs_sim.Network
module Stime = Qs_sim.Stime
module Detector = Qs_fd.Detector
module Timeout = Qs_fd.Timeout
module QS = Qs_core.Quorum_select
module Pid = Qs_core.Pid
module Auth = Qs_crypto.Auth

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

type proc = {
  me : Pid.t;
  fd : msg Detector.t;
  qsel : QS.t;
  mutable crashed_at : Stime.t option;
  mutable quorum_times : (Stime.t * Pid.t list) list; (* reversed *)
}

type t = {
  config : config;
  sim : Sim.t;
  net : msg Network.t;
  auth : Auth.t;
  procs : proc array;
  omissions : (Pid.t * Pid.t, Stime.t) Hashtbl.t;
  mutable rounds_scheduled : bool;
}

let is_crashed t p =
  match t.procs.(p).crashed_at with
  | Some at -> Stime.compare (Sim.now t.sim) at >= 0
  | None -> false

let create ?(seed = 1L) ?(delay = Network.Fixed (Stime.of_ms 1)) config =
  QS.validate_config { QS.n = config.n; f = config.f };
  let sim = Sim.create ~seed () in
  let net = Network.create ~sim ~n:config.n ~delay () in
  let auth = Auth.create config.n in
  let omissions = Hashtbl.create 8 in
  let procs = Array.make config.n None in
  let t_ref = ref None in
  for me = 0 to config.n - 1 do
    let timeouts =
      Timeout.create ~n:config.n ~initial:config.initial_timeout config.timeout_strategy
    in
    let proc_ref = ref None in
    let qsel =
      QS.create
        { QS.n = config.n; f = config.f }
        ~me ~auth
        ~send:(fun update ->
          let t = Option.get !t_ref in
          if not (is_crashed t me) then
            for dst = 0 to config.n - 1 do
              Network.send net ~src:me ~dst (seal auth ~sender:me (Qsel update))
            done)
        ~on_quorum:(fun quorum ->
          let p = Option.get !proc_ref in
          p.quorum_times <- (Sim.now sim, quorum) :: p.quorum_times)
        ()
    in
    let fd =
      Detector.create ~sim ~me ~n:config.n ~timeouts
        ~deliver:(fun ~src m ->
          match m.body with
          | Beat _ -> ()
          | Qsel update ->
            ignore src;
            QS.handle_update qsel update)
        ~on_suspected:(fun s -> QS.handle_suspected qsel s)
        ()
    in
    let proc = { me; fd; qsel; crashed_at = None; quorum_times = [] } in
    proc_ref := Some proc;
    procs.(me) <- Some proc
  done;
  let t =
    {
      config;
      sim;
      net;
      auth;
      procs = Array.map Option.get procs;
      omissions;
      rounds_scheduled = false;
    }
  in
  t_ref := Some t;
  Array.iteri
    (fun i proc ->
      Network.set_handler net i (fun ~src m ->
          if (not (is_crashed t i)) && verify t.auth m && m.sender = src then
            Detector.receive proc.fd ~src m))
    t.procs;
  ignore
    (Network.add_filter net (fun ~now ~src ~dst _ ->
         match Hashtbl.find_opt omissions (src, dst) with
         | Some from when Stime.compare now from >= 0 -> Network.Drop
         | _ -> Network.Deliver)
      : Network.filter_id);
  t

let sim t = t.sim

let crash t p at = t.procs.(p).crashed_at <- Some at

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
  for k = 1 to rounds do
    Sim.schedule_at t.sim ~at:(k * period) (fun () ->
        Array.iter
          (fun proc ->
            let me = proc.me in
            if not (is_crashed t me) then begin
              for dst = 0 to t.config.n - 1 do
                if dst <> me then
                  Network.send t.net ~src:me ~dst (seal t.auth ~sender:me (Beat { seq = k }))
              done;
              for peer = 0 to t.config.n - 1 do
                if peer <> me then
                  Detector.expect proc.fd ~from:peer ~tag:"beat" (fun m ->
                      match m.body with Beat { seq } -> seq >= k | Qsel _ -> false)
              done
            end)
          t.procs)
  done

let run ?(until = Stime.of_ms 2000) t =
  if not t.rounds_scheduled then begin
    t.rounds_scheduled <- true;
    schedule_rounds t ~until
  end;
  Sim.run ~until t.sim

let agreed_quorum t ~correct =
  match correct with
  | [] -> None
  | first :: rest ->
    let quorum = QS.last_quorum t.procs.(first).qsel in
    if List.for_all (fun p -> QS.last_quorum t.procs.(p).qsel = quorum) rest then Some quorum
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
            match t.procs.(p).quorum_times with
            | (at, _) :: _ -> Stime.max acc at
            | [] -> acc)
          Stime.zero correct
      in
      Some latest
    end

let quorum_changes t ~correct =
  List.fold_left (fun acc p -> max acc (QS.quorums_issued t.procs.(p).qsel)) 0 correct

let messages_sent t = Network.sent_count t.net

let false_suspicion_total t ~correct =
  List.fold_left (fun acc p -> acc + Detector.false_suspicions t.procs.(p).fd) 0 correct

let matrices_agree t ~correct =
  match correct with
  | [] -> true
  | first :: rest ->
    let reference = QS.matrix t.procs.(first).qsel in
    List.for_all
      (fun p -> Qs_core.Suspicion_matrix.equal reference (QS.matrix t.procs.(p).qsel))
      rest
