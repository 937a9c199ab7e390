module Network = Qs_sim.Network
module Stime = Qs_sim.Stime
module Pid = Qs_core.Pid
module Store = Qs_recovery.Store

module C = Qs_sim.Smr_cluster.Make (struct
  type t = Replica.t

  type msg = Xmsg.t

  type config = Replica.config

  type fault = Replica.fault

  let n config = config.Replica.n

  let setup config =
    let auth = Qs_crypto.Auth.create config.Replica.n in
    fun ~me ~sim ~net_send ~on_execute ->
      Replica.create config ~me ~auth ~sim ~net_send
        ~on_execute:(fun ~slot:_ request -> on_execute request)
        ()

  let stamp_threshold config = config.Replica.n - config.Replica.f

  let commit_rule config = Qs_sim.Smr_cluster.At_least (stamp_threshold config)

  let receive = Replica.receive

  let submit = Replica.submit

  let executed = Replica.executed

  let set_fault = Replica.set_fault

  let write_key = Replica.write_key

  let encode (m : Xmsg.t) = string_of_int m.sender ^ "|" ^ Xmsg.encode_body m.body
end)

type replica = C.replica

type msg = C.msg

type request = C.request

type config = C.config

type fault = C.fault

type t = {
  c : C.t;
  omitted : (Pid.t * Pid.t, unit) Hashtbl.t;
  delayed : (Pid.t * Pid.t, Stime.t) Hashtbl.t;
  mutable stores : Store.t array option; (* set by attach_durability *)
}

(* ------------------------------------------------------------------ *)
(* The durable-state layout, rejoin payloads and amnesia restore live in
   {!Xdurable}, shared with the real-transport runtime node. The cluster
   only supplies the per-pid replica and store. *)

let persist t p =
  match t.stores with
  | None -> ()
  | Some stores -> Xdurable.persist (C.replica t.c p) stores.(p)

let create ?seed ?delay ?(on_execute = fun _ _ -> ()) config =
  (* The execute hook outlives this function and needs the record that is
     only built below — forward reference. *)
  let self = ref None in
  let c =
    C.create ?seed ?delay config ~on_execute:(fun me request ->
        (match !self with Some t -> persist t me | None -> ());
        on_execute me request)
  in
  let t =
    { c; omitted = Hashtbl.create 16; delayed = Hashtbl.create 16; stores = None }
  in
  self := Some t;
  ignore
    (Network.add_filter (C.net c) (fun ~now:_ ~src ~dst _ ->
         if Hashtbl.mem t.omitted (src, dst) then Network.Drop
         else
           match Hashtbl.find_opt t.delayed (src, dst) with
           | Some d -> Network.Delay d
           | None -> Network.Deliver)
      : Network.filter_id);
  t

let sim t = C.sim t.c

let net t = C.net t.c

let config t = C.config t.c

let replica t = C.replica t.c

let replicas t = C.replicas t.c

let set_fault t = C.set_fault t.c

let submit t = C.submit t.c

let handoff t = C.handoff t.c

let run ?until ?max_events t = C.run ?until ?max_events t.c

let executed_by t = C.executed_by t.c

let is_committed t = C.is_committed t.c

let history t = C.history t.c

let consistent t = C.consistent t.c

let message_count t = C.message_count t.c

let commit_latency t = C.commit_latency t.c

let digest = C.digest

let write_key t = C.write_key t.c

let omit_link t ~src ~dst = Hashtbl.replace t.omitted (src, dst) ()

let delay_link t ~src ~dst ~by = Hashtbl.replace t.delayed (src, dst) by

let max_view t = Array.fold_left (fun acc r -> max acc (Replica.view r)) 0 (replicas t)

(* ------------------------------------------------------------------ *)
(* Durability and amnesia crashes *)

let attach_durability ?fsync_every t =
  match t.stores with
  | Some _ -> ()
  | None ->
    let n = (config t).Replica.n in
    let stores = Array.init n (fun _ -> Store.create ?fsync_every ()) in
    t.stores <- Some stores;
    (* Baseline snapshot: the pre-run state is durable by definition. *)
    Array.iteri
      (fun p store ->
        persist t p;
        Store.fsync store)
      stores

let store t p =
  match t.stores with
  | Some stores -> stores.(p)
  | None -> invalid_arg "Xcluster.store: durability not attached"

let collect_payload t p = Xdurable.collect_payload ~n:(config t).Replica.n (replica t p)

let adopt_payload t p ~matrix ~epoch ~extra =
  Xdurable.adopt_payload (replica t p) ~matrix ~epoch ~extra

let amnesia t p =
  let store = Option.map (fun stores -> stores.(p)) t.stores in
  Xdurable.amnesia ~n:(config t).Replica.n (replica t p) store
