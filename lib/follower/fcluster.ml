module Pid = Qs_core.Pid
module Quorum_select = Qs_core.Quorum_select

exception Bus_saturated

type fd_state = {
  mutable transient : Pid.t list;
  mutable permanent : Pid.t list;
  mutable expectation : (Pid.t * int) option;
}

type t = {
  config : Quorum_select.config;
  auth : Qs_crypto.Auth.t;
  nodes : Follower_select.t array;
  fds : fd_state array;
  queue : (Pid.t * Fmsg.t) Queue.t;
  crashed : bool array;
  mutable processed : int;
  detected_log : (Pid.t * Pid.t) list ref; (* reversed *)
}

let suspicion_set fd = List.sort_uniq compare (fd.transient @ fd.permanent)

let create config =
  let n = config.Quorum_select.n in
  let auth = Qs_crypto.Auth.create n in
  let queue = Queue.create () in
  let fds =
    Array.init n (fun _ -> { transient = []; permanent = []; expectation = None })
  in
  let detected_log = ref [] in
  let node_slots : Follower_select.t option array = Array.make n None in
  let publish_at me =
    match node_slots.(me) with
    | None -> ()
    | Some node -> Follower_select.handle_suspected node (suspicion_set fds.(me))
  in
  for me = 0 to n - 1 do
    let node =
      Follower_select.create config ~me ~auth
        ~send:(fun msg ->
          for dst = 0 to n - 1 do
            Queue.add (dst, msg) queue
          done)
        ~on_quorum:(fun ~leader:_ _ -> ())
        ~fd_expect:(fun ~leader ~epoch -> fds.(me).expectation <- Some (leader, epoch))
        ~fd_cancel:(fun () -> fds.(me).expectation <- None)
        ~fd_detected:(fun culprit ->
          detected_log := (me, culprit) :: !detected_log;
          let fd = fds.(me) in
          if not (List.mem culprit fd.permanent) then begin
            fd.permanent <- culprit :: fd.permanent;
            publish_at me
          end)
        ()
    in
    node_slots.(me) <- Some node
  done;
  {
    config;
    auth;
    nodes = Array.map Option.get node_slots;
    fds;
    queue;
    crashed = Array.make n false;
    processed = 0;
    detected_log;
  }

let node t i = t.nodes.(i)

let auth t = t.auth

let crash t i = t.crashed.(i) <- true

let publish t i =
  Follower_select.handle_suspected t.nodes.(i) (suspicion_set t.fds.(i))

let fd_suspect t ~at suspects =
  if not t.crashed.(at) then begin
    t.fds.(at).transient <- suspects;
    publish t at
  end

let open_expectation t ~at = t.fds.(at).expectation

let fire_timeout t ~at =
  match t.fds.(at).expectation with
  | None -> ()
  | Some (leader, _) ->
    t.fds.(at).expectation <- None;
    if not (List.mem leader t.fds.(at).transient) then
      t.fds.(at).transient <- leader :: t.fds.(at).transient;
    publish t at

let deliver t ~to_ msg = Queue.add (to_, msg) t.queue

let run_until_quiet t =
  let budget = ref 1_000_000 in
  while not (Queue.is_empty t.queue) do
    if !budget = 0 then raise Bus_saturated;
    decr budget;
    let dst, msg = Queue.pop t.queue in
    t.processed <- t.processed + 1;
    if not t.crashed.(dst) then Follower_select.handle_msg t.nodes.(dst) msg
  done

let agreed t ~correct =
  match correct with
  | [] -> None
  | first :: rest ->
    let ld = Follower_select.leader t.nodes.(first) in
    let quorum = Follower_select.last_quorum t.nodes.(first) in
    if
      List.for_all
        (fun p ->
          Follower_select.leader t.nodes.(p) = ld
          && Follower_select.last_quorum t.nodes.(p) = quorum)
        rest
    then Some (ld, quorum)
    else None

let max_issued t ~correct =
  List.fold_left (fun acc p -> max acc (Follower_select.quorums_issued t.nodes.(p))) 0 correct

let detected_log t = List.rev !(t.detected_log)

let messages_processed t = t.processed
