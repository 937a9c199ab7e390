module Stime = Qs_sim.Stime
module Store = Qs_recovery.Store
module Rejoin = Qs_recovery.Rejoin
module Replica = Qs_xpaxos.Replica
module Xmsg = Qs_xpaxos.Xmsg
module Xdurable = Qs_xpaxos.Xdurable

(* One XPaxos process over an abstract transport: the replica core, its
   durable store, and a rejoin engine sharing the transport through the
   {!Envelope} multiplexer. The functor never looks inside the transport —
   instantiate it with {!Transport.Sim} and the node runs in the
   discrete-event simulator, with {!Tcp.Make} and the very same code runs
   over sockets. *)

module Make (T : Transport.TRANSPORT with type msg = Envelope.t) = struct
  type t = {
    me : int;
    config : Replica.config;
    transport : T.t;
    replica : Replica.t;
    rejoin : Rejoin.t;
    store : Store.t option;
  }

  let create ~config ~me ~auth ~transport ?store
      ?(rejoin_config : Rejoin.config option) ?on_execute () =
    let sim = T.sim transport ~me in
    let node = ref None in
    let replica =
      Replica.create config ~me ~auth ~sim
        ~net_send:(fun ~dst msg ->
          T.send transport ~src:me ~dst (Envelope.Proto msg))
        ~on_execute:(fun ~slot request ->
          (match (!node, store) with
           | Some n, Some s -> Xdurable.persist n.replica s
           | _ -> ());
          match on_execute with Some f -> f ~slot request | None -> ())
        ()
    in
    let rejoin =
      Rejoin.create ~sim
        (match rejoin_config with
         | Some c -> c
         | None ->
           { (Rejoin.default_config ~n:config.Replica.n) with
             Rejoin.needed = 1;
             gossip_every = Some (Stime.of_ms 1000);
           })
        ~me
        ~collect:(fun () ->
          Xdurable.collect_payload ~n:config.Replica.n replica)
        ~adopt:(fun ~matrix ~epoch ~extra ->
          Xdurable.adopt_payload replica ~matrix ~epoch ~extra)
        ~send:(fun ~dst msg -> T.send transport ~src:me ~dst (Envelope.Rejoin msg))
        ()
    in
    let t = { me; config; transport; replica; rejoin; store } in
    node := Some t;
    T.set_handler transport me (fun ~src env ->
        match env with
        | Envelope.Proto m -> Replica.receive replica ~src m
        | Envelope.Rejoin m -> Rejoin.handle rejoin ~src m);
    (match store with Some s -> Xdurable.persist replica s | None -> ());
    t

  let me t = t.me

  let replica t = t.replica

  let rejoin t = t.rejoin

  let store t = t.store

  let submit t request = T.post t.transport t.me (fun () -> Replica.submit t.replica request)

  let start_gossip t = Rejoin.start_gossip t.rejoin

  let persist t = match t.store with Some s -> Xdurable.persist t.replica s | None -> ()

  (* Amnesia crash-recovery, in the node's own execution context: wipe the
     volatile state, restore the durable snapshot, open a rejoin round and
     merge our own durable selection state into it as a self-push — the
     exact sequence the chaos harness performs in simulation. *)
  let crash_amnesia t =
    T.post t.transport t.me (fun () ->
        let payload = Xdurable.amnesia ~n:t.config.Replica.n t.replica t.store in
        Rejoin.start t.rejoin;
        Rejoin.handle t.rejoin ~src:t.me (Rejoin.State_push { payload }))
end
