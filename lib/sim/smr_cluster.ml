(* A replicated state machine in the simulator, written once for every
   protocol stack.

   [Make] wires [n] replicas of one protocol over an eventually-synchronous
   {!Network}, plays a simulated client that hands each request to every
   replica (as the protocols' clients broadcast after a timeout), and
   records which replicas executed what and when. The five clusters
   (XPaxos, PBFT, MinBFT, chain, star) are instantiations of it plus their
   few genuine extras. The module is mostly signatures, so it has no
   separate interface file: [Make]'s result is sealed by [S]. *)

module State_key = Qs_stdx.State_key

(** A client request, the one record every stack orders and executes:
    (client, rid) identifies it, [op] is the opaque state-machine
    operation. *)
type request = {
  client : int;
  rid : int;  (** client-local request id *)
  op : string;  (** state-machine operation *)
}

(** The canonical bytes of a request inside every signed binding. *)
let encode_request r = Printf.sprintf "REQ|%d|%d|%s" r.client r.rid r.op

(** (client, rid) *)
let request_id r = (r.client, r.rid)

(** A request's (client, rid) as a model-checker key. *)
let write_id key r =
  State_key.add key r.client;
  State_key.add key r.rid

(** A table keyed by (client, rid) as a model-checker key: per binding,
    the id, then the value as [write] writes it. *)
let write_id_table key tbl write =
  State_key.add_table key tbl (fun (client, rid) v ->
      State_key.add key client;
      State_key.add key rid;
      write v)

(** One history is a prefix of the other. *)
let prefix_compatible a b =
  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: a', y :: b' -> x = y && is_prefix a' b'
  in
  is_prefix a b || is_prefix b a

(** Pairwise {!prefix_compatible}: the safety invariant of state machine
    replication over a set of executed histories. *)
let rec prefix_consistent = function
  | [] -> true
  | h :: rest -> List.for_all (prefix_compatible h) rest && prefix_consistent rest

(** A parked message's id-free key, [src>dst#digest]. *)
let parked_key digest src dst payload = Printf.sprintf "%d>%d#%s" src dst (digest payload)

(** The multiset of messages parked on a controlled network as a
    model-checker key: per message, its ends packed into one int, then its
    payload [digest]; id-free, like {!parked_key}. *)
let write_parked key net digest =
  State_key.add_multiset key
    (fun (_, src, dst, payload) ->
      State_key.add key (State_key.pack key src dst 0);
      State_key.add_string key (digest payload))
    (Network.pending net)

(** When a request counts as committed. *)
type 'r commit_rule =
  | At_least of int  (** executed by at least this many replicas *)
  | Covers of ('r -> int list)
      (** executed by every member of some replica's current group (its
          chain or quorum), which must be non-empty *)

(** What a protocol supplies: its replica module and the few rules that
    differ between stacks. *)
module type REPLICA = sig
  type t

  type msg

  type config

  type fault

  val n : config -> int

  val setup :
    config ->
    me:int ->
    sim:Sim.t ->
    net_send:(dst:int -> msg -> unit) ->
    on_execute:(request -> unit) ->
    t
  (** [setup config] builds the cluster-wide material once (key
      directories, trusted counters); the returned closure then creates
      replica [me]. *)

  val stamp_threshold : config -> int
  (** Executions after which a request's commit time is stamped — the
      point [commit_latency] measures to. *)

  val commit_rule : config -> t commit_rule

  val receive : t -> src:int -> msg -> unit

  val submit : t -> request -> unit

  val executed : t -> request list

  val set_fault : t -> fault -> unit

  val write_key : t -> State_key.t -> unit
  (** The model-checker key: protocol state, then the shell's. *)

  val encode : msg -> string
  (** A message's canonical bytes: its sender and body, not its tag. *)
end

module type S = sig
  type t

  type replica

  type msg

  type request

  type config

  type fault

  val create :
    ?seed:int64 ->
    ?delay:Network.delay_model ->
    ?on_execute:(int -> request -> unit) ->
    config ->
    t
  (** Default delay: [Fixed 1ms]; links are FIFO, as the protocols assume of
      point-to-point channels. [on_execute me r] runs after the cluster
      recorded replica [me]'s execution of [r]. *)

  val sim : t -> Sim.t

  val net : t -> msg Network.t

  val config : t -> config

  val replica : t -> int -> replica

  val replicas : t -> replica array

  val set_fault : t -> int -> fault -> unit

  val submit : t -> ?client:int -> ?resubmit_every:Stime.t -> string -> request
  (** Schedule a client request, handed to every replica at the current
      simulation time; redelivered every [resubmit_every] until
      [is_committed], when given. Returns the request for querying. *)

  val handoff : t -> request -> unit
  (** Give a request to every replica now (what {!submit} schedules). *)

  val run : ?until:Stime.t -> ?max_events:int -> t -> unit

  val executed_by : t -> request -> int list
  (** Replicas that executed the request, sorted. *)

  val is_committed : t -> request -> bool
  (** The stack's [commit_rule]. *)

  val history : t -> int -> (int * int) list
  (** Replica [p]'s executed requests as (client, rid) keys, in order. *)

  val consistent : t -> correct:int list -> bool
  (** {!prefix_consistent} over the given replicas' executed histories. *)

  val message_count : t -> int
  (** Inter-replica messages sent (excludes self-deliveries). *)

  val commit_latency : t -> request -> Stime.t option
  (** Time from submission until [stamp_threshold] replicas executed the
      request. *)

  val digest : msg -> string
  (** Hex SHA-256 of a message's canonical bytes. *)

  val write_key : t -> State_key.t -> unit
  (** The model-checker key: each replica's, the {!write_parked}
      messages, then the virtual time and the pending-event count — a weak
      proxy for the opaque simulator queue (see DESIGN.md). *)
end

module Make (R : REPLICA) :
  S
    with type replica = R.t
     and type msg = R.msg
     and type request = request
     and type config = R.config
     and type fault = R.fault = struct
  type replica = R.t

  type msg = R.msg

  type nonrec request = request

  type config = R.config

  type fault = R.fault

  type t = {
    sim : Sim.t;
    net : msg Network.t;
    replicas : replica array;
    config : config;
    commit_rule : replica commit_rule;
    mutable next_rid : int;
    (* (client, rid) -> replicas that executed it *)
    executions : (int * int, int list ref) Hashtbl.t;
    submit_times : (int * int, Stime.t) Hashtbl.t;
    commit_times : (int * int, Stime.t) Hashtbl.t;
  }

  let create ?(seed = 1L) ?(delay = Network.Fixed (Stime.of_ms 1))
      ?(on_execute = fun _ _ -> ()) config =
    let n = R.n config in
    let sim = Sim.create ~seed () in
    let net = Network.create ~sim ~n ~delay ~fifo:true () in
    let make = R.setup config in
    let executions = Hashtbl.create 64 in
    let commit_times = Hashtbl.create 64 in
    let threshold = R.stamp_threshold config in
    let replicas =
      Array.init n (fun me ->
          make ~me ~sim
            ~net_send:(fun ~dst msg -> Network.send net ~src:me ~dst msg)
            ~on_execute:(fun request ->
              let key = request_id request in
              let cell =
                match Hashtbl.find_opt executions key with
                | Some c -> c
                | None ->
                  let c = ref [] in
                  Hashtbl.replace executions key c;
                  c
              in
              if not (List.mem me !cell) then begin
                cell := me :: !cell;
                if List.length !cell = threshold && not (Hashtbl.mem commit_times key)
                then Hashtbl.replace commit_times key (Sim.now sim)
              end;
              on_execute me request))
    in
    Array.iteri
      (fun i replica ->
        Network.set_handler net i (fun ~src msg -> R.receive replica ~src msg))
      replicas;
    {
      sim;
      net;
      replicas;
      config;
      commit_rule = R.commit_rule config;
      next_rid = 0;
      executions;
      submit_times = Hashtbl.create 64;
      commit_times;
    }

  let sim t = t.sim

  let net t = t.net

  let config t = t.config

  let replica t i = t.replicas.(i)

  let replicas t = t.replicas

  let set_fault t i fault = R.set_fault t.replicas.(i) fault

  let executed_by t request =
    match Hashtbl.find_opt t.executions (request_id request) with
    | Some cell -> List.sort compare !cell
    | None -> []

  let is_committed t request =
    let executed = executed_by t request in
    match t.commit_rule with
    | At_least k -> List.length executed >= k
    | Covers group ->
      Array.exists
        (fun r ->
          let g = group r in
          g <> [] && List.for_all (fun p -> List.mem p executed) g)
        t.replicas

  let handoff t request = Array.iter (fun r -> R.submit r request) t.replicas

  let submit t ?(client = 0) ?resubmit_every op =
    let rid = t.next_rid in
    t.next_rid <- t.next_rid + 1;
    let request = { client; rid; op } in
    Hashtbl.replace t.submit_times (client, rid) (Sim.now t.sim);
    let deliver () = handoff t request in
    Sim.schedule t.sim ~delay:0 deliver;
    (match resubmit_every with
     | None -> ()
     | Some period ->
       let rec again () =
         if not (is_committed t request) then begin
           deliver ();
           Sim.schedule t.sim ~delay:period again
         end
       in
       Sim.schedule t.sim ~delay:period again);
    request

  let run ?until ?max_events t = Sim.run ?until ?max_events t.sim

  let history t p = List.map request_id (R.executed t.replicas.(p))

  let consistent t ~correct =
    prefix_consistent (List.map (fun p -> R.executed t.replicas.(p)) correct)

  let message_count t = Network.sent_count t.net

  let digest m = Qs_crypto.Sha256.digest_hex (R.encode m)

  let write_key t key =
    Array.iter (fun r -> R.write_key r key) t.replicas;
    write_parked key t.net digest;
    State_key.add key (Sim.now t.sim);
    State_key.add key (Sim.pending_events t.sim)

  let commit_latency t request =
    let key = request_id request in
    match (Hashtbl.find_opt t.submit_times key, Hashtbl.find_opt t.commit_times key) with
    | Some s, Some c -> Some (Stime.( - ) c s)
    | _ -> None
end
