exception Bus_saturated

type t = {
  config : Quorum_select.config;
  auth : Qs_crypto.Auth.t;
  nodes : Quorum_select.t array;
  queue : (Pid.t * Msg.t) Queue.t; (* (destination, message) *)
  crashed : bool array;
  mutable processed : int;
  quorum_log : (Pid.t * Pid.t list) list ref; (* reversed *)
}

let create config =
  Quorum_select.validate_config config;
  let auth = Qs_crypto.Auth.create config.Quorum_select.n in
  let queue = Queue.create () in
  let quorum_log = ref [] in
  let nodes =
    Array.init config.Quorum_select.n (fun me ->
        Quorum_select.create config ~me ~auth
          ~send:(fun msg ->
            for dst = 0 to config.Quorum_select.n - 1 do
              Queue.add (dst, msg) queue
            done)
          ~on_quorum:(fun quorum -> quorum_log := (me, quorum) :: !quorum_log)
          ())
  in
  {
    config;
    auth;
    nodes;
    queue;
    crashed = Array.make config.Quorum_select.n false;
    processed = 0;
    quorum_log;
  }

let config t = t.config

let node t i = t.nodes.(i)

let auth t = t.auth

let crash t i = t.crashed.(i) <- true

let is_crashed t i = t.crashed.(i)

let fd_suspect t ~at suspects =
  if not t.crashed.(at) then Quorum_select.handle_suspected t.nodes.(at) suspects

let deliver_row t ~owner ~row ~to_ =
  Queue.add (to_, Msg.seal t.auth { Msg.owner; row }) t.queue

let run_until_quiet t =
  let budget = ref 1_000_000 in
  while not (Queue.is_empty t.queue) do
    if !budget = 0 then raise Bus_saturated;
    decr budget;
    let dst, msg = Queue.pop t.queue in
    t.processed <- t.processed + 1;
    if not t.crashed.(dst) then Quorum_select.handle_update t.nodes.(dst) msg
  done

let last_quorums t = Array.map Quorum_select.last_quorum t.nodes

let agreed_quorum t ~correct =
  match correct with
  | [] -> None
  | first :: rest ->
    let quorum = Quorum_select.last_quorum t.nodes.(first) in
    if List.for_all (fun p -> Quorum_select.last_quorum t.nodes.(p) = quorum) rest then
      Some quorum
    else None

let max_issued t ~correct =
  List.fold_left (fun acc p -> max acc (Quorum_select.quorums_issued t.nodes.(p))) 0 correct

let messages_processed t = t.processed

let quorum_log t = List.rev !(t.quorum_log)
