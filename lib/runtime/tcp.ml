module Stime = Qs_sim.Stime
module Sim = Qs_sim.Sim
module Prng = Qs_stdx.Prng
module Timeout = Qs_fd.Timeout
module Codec = Qs_recovery.Codec

let log = Logs.Src.create "qs.runtime.tcp" ~doc:"Real TCP transport"

module Log = (val Logs.src_log log : Logs.LOG)

(* Outgoing per-link shaping, installed by the nemesis: each frame on the
   link is dropped with probability [loss] (per-link seeded PRNG, so a run
   with a fixed seed sheds a reproducible *fraction*, not a reproducible
   set) and otherwise held back [extra_delay] before the write. *)
type policy = { loss : float; extra_delay : Stime.t }

type stats = {
  sent : int;  (** frames accepted into send queues *)
  delivered : int;  (** data frames handed to the endpoint handler *)
  shed : int;  (** frames dropped by bounded-queue backpressure *)
  dup_dropped : int;  (** frames discarded by sequence dedup *)
  corrupt_rejected : int;  (** frames rejected as [Corrupt]; each kills its connection *)
  nemesis_dropped : int;  (** frames dropped by an armed loss policy *)
  reconnects : int;  (** successful (re-)connects beyond each link's first *)
  keepalives_seen : int;
}

module type WIRE = sig
  type msg

  val encode : msg -> string

  val decode : string -> msg
  (** Raises {!Qs_recovery.Codec.Corrupt}. *)
end

module Make (M : WIRE) = struct
  type msg = M.msg

  (* One outgoing link: a bounded queue drained by a supervised sender
     thread that owns the connection and its reconnect backoff. *)
  type link = {
    dst : int;
    queue : string Mailbox.t;
    backoff : Timeout.Backoff.t;
    jitter_prng : Prng.t;
    policy_prng : Prng.t;
    mutable policy : policy option;
    mutable seq : int;
    mutable fd : Unix.file_descr option;
    mutable connects : int;
    mutable nemesis_dropped : int;
    m : Mutex.t;
  }

  type endpoint = {
    me : int;
    incarnation : int;
    wheel : Sim.t;  (* private timer wheel, advanced to the wall clock *)
    inbox : (unit -> unit) Mailbox.t;
    mutable handler : (src:int -> msg -> unit) option;
    links : link option array;  (* [None] at index [me] *)
    (* receiver-side dedup: src -> (incarnation, seq high-watermark) *)
    dedup : (int, int * int) Hashtbl.t;
    mutable listen_fd : Unix.file_descr option;
    mutable inbound : Unix.file_descr list;
    mutable refusing : bool;
    mutable paused : bool;
    mutable running : bool;
    mutable delivered : int;
    mutable dup_dropped : int;
    mutable corrupt_rejected : int;
    mutable keepalives_seen : int;
    em : Mutex.t;
    mutable threads : Supervisor.t list;
  }

  type t = {
    n : int;
    addrs : Unix.sockaddr array;
    clock : Wallclock.t;
    seed : int64;
    queue_capacity : int;
    inbox_capacity : int;
    keepalive_every : Stime.t;
    reconnect_initial : Stime.t;
    reconnect_strategy : Timeout.strategy;
    reconnect_jitter : float;
    endpoints : endpoint option array;
    fm : Mutex.t;
  }

  let create ~addrs ?(seed = 1L) ?(queue_capacity = 256) ?(inbox_capacity = 4096)
      ?(keepalive_every = Stime.of_ms 50) ?(reconnect_initial = Stime.of_ms 10)
      ?(reconnect_strategy =
        Timeout.Exponential { factor = 2.0; max = Stime.of_ms 1000 })
      ?(reconnect_jitter = 0.2) () =
    let n = Array.length addrs in
    if n < 2 then invalid_arg "Tcp.create: need at least two endpoints";
    (* A peer death must surface as EPIPE on the write, not kill the
       process: connection failure is routine here, handled by reconnect. *)
    if Sys.os_type = "Unix" then
      ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore : Sys.signal_behavior);
    {
      n;
      addrs = Array.copy addrs;
      clock = Wallclock.create ();
      seed;
      queue_capacity;
      inbox_capacity;
      keepalive_every;
      reconnect_initial;
      reconnect_strategy;
      reconnect_jitter;
      endpoints = Array.make n None;
      fm = Mutex.create ();
    }

  let n t = t.n

  let clock t = t.clock

  let endpoint t i =
    match t.endpoints.(i) with
    | Some ep -> ep
    | None -> invalid_arg (Printf.sprintf "Tcp: endpoint %d not started" i)

  let sim t ~me = (endpoint t me).wheel

  let set_handler t i f = (endpoint t i).handler <- Some (fun ~src m -> f ~src m)

  let post t i f = ignore (Mailbox.push (endpoint t i).inbox f : bool)

  (* ---------------- sender side ---------------- *)

  let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

  let link_drop_conn link =
    Mutex.lock link.m;
    let fd = link.fd in
    link.fd <- None;
    Mutex.unlock link.m;
    match fd with None -> () | Some fd -> close_quietly fd

  (* Connect with exponential backoff and jitter. Returns [None] when the
     endpoint is shutting down. *)
  let rec connect_loop t ep link =
    if not ep.running then None
    else
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      match
        Unix.setsockopt sock Unix.TCP_NODELAY true;
        Unix.connect sock t.addrs.(link.dst)
      with
      | () ->
        Timeout.Backoff.reset link.backoff;
        Mutex.lock link.m;
        link.fd <- Some sock;
        link.connects <- link.connects + 1;
        Mutex.unlock link.m;
        (* First frame announces who we are and which incarnation, so the
           receiver can reset its dedup watermark across our restarts. *)
        (try
           Frame.write sock
             {
               Frame.kind = Frame.Hello;
               src = ep.me;
               incarnation = ep.incarnation;
               seq = 0;
               payload = "";
             };
           Some sock
         with Unix.Unix_error _ | Sys_error _ ->
           link_drop_conn link;
           connect_loop t ep link)
      | exception Unix.Unix_error _ ->
        close_quietly sock;
        Timeout.Backoff.advance link.backoff;
        let u = Prng.float link.jitter_prng 1.0 in
        Wallclock.sleep (Timeout.Backoff.delay link.backoff ~u);
        connect_loop t ep link

  let apply_policy link =
    match link.policy with
    | None -> `Send
    | Some p ->
      if p.loss > 0.0 && Prng.chance link.policy_prng p.loss then `Drop
      else begin
        if p.extra_delay > 0 then Wallclock.sleep p.extra_delay;
        `Send
      end

  let sender_loop t ep link () =
    let idle_budget = Wallclock.to_seconds t.keepalive_every in
    while ep.running do
      let fd =
        match link.fd with Some fd -> Some fd | None -> connect_loop t ep link
      in
      match fd with
      | None -> () (* shutting down *)
      | Some fd -> (
        match Mailbox.pop ~timeout:idle_budget link.queue with
        | None ->
          if Mailbox.closed link.queue then raise Exit;
          (* Idle: keep the connection warm and the peer's liveness view
             fresh. A dead peer surfaces here as a write error. *)
          (try
             Frame.write fd
               {
                 Frame.kind = Frame.Keepalive;
                 src = ep.me;
                 incarnation = ep.incarnation;
                 seq = 0;
                 payload = "";
               }
           with Unix.Unix_error _ | Sys_error _ -> link_drop_conn link)
        | Some payload -> (
          match apply_policy link with
          | `Drop ->
            Mutex.lock link.m;
            link.nemesis_dropped <- link.nemesis_dropped + 1;
            Mutex.unlock link.m
          | `Send ->
            link.seq <- link.seq + 1;
            (try
               Frame.write fd
                 {
                   Frame.kind = Frame.Data;
                   src = ep.me;
                   incarnation = ep.incarnation;
                   seq = link.seq;
                   payload;
                 }
             with Unix.Unix_error _ | Sys_error _ ->
               (* The frame dies with the connection; the protocol layer owns
                  retransmission (XPaxos resubmits, rejoin rebroadcasts). *)
               link_drop_conn link)))
    done

  let send t ~src ~dst m =
    let ep = endpoint t src in
    if ep.paused then ()
    else if dst = src then begin
      (* Self-send short-circuits the wire, like the simulator's one-tick
         self-delivery: run it as a posted event on our own driver. *)
      ignore
        (Mailbox.push ep.inbox (fun () ->
             ep.delivered <- ep.delivered + 1;
             match ep.handler with
             | Some h -> h ~src m
             | None -> ())
          : bool)
    end
    else
      match ep.links.(dst) with
      | None -> ()
      | Some link -> ignore (Mailbox.push link.queue (M.encode m) : bool)

  (* ---------------- receiver side ---------------- *)

  let handle_data ep ~src ~incarnation ~seq payload =
    (* Runs on the driver thread under the core lock: dedup state and the
       handler are single-threaded. *)
    let fresh =
      match Hashtbl.find_opt ep.dedup src with
      | Some (inc, hi) when inc = incarnation -> seq > hi
      | Some _ | None -> true (* new incarnation: watermark resets *)
    in
    if not fresh then ep.dup_dropped <- ep.dup_dropped + 1
    else begin
      Hashtbl.replace ep.dedup src (incarnation, seq);
      match M.decode payload with
      | m -> (
        ep.delivered <- ep.delivered + 1;
        match ep.handler with Some h -> h ~src m | None -> ())
      | exception Codec.Corrupt _ ->
        (* Framed bytes were intact but the payload codec rejects: count it
           against the channel like any corrupt frame. *)
        ep.corrupt_rejected <- ep.corrupt_rejected + 1
    end

  (* One thread per inbound connection. The claimed source is whatever the
     Hello frame said — corrupt traffic kills this connection (the channel
     is quarantined) but never marks the claimed sender: a forger must not
     be able to get its victim blamed by sending garbage under its name. *)
  let receiver_loop ep fd () =
    match
      let rec loop () =
        let f = Frame.read fd in
        (match f.Frame.kind with
         | Frame.Hello -> ()
         | Frame.Keepalive ->
           ignore
             (Mailbox.push ep.inbox (fun () ->
                  ep.keepalives_seen <- ep.keepalives_seen + 1)
               : bool)
         | Frame.Data ->
           ignore
             (Mailbox.push ep.inbox (fun () ->
                  handle_data ep ~src:f.Frame.src
                    ~incarnation:f.Frame.incarnation ~seq:f.Frame.seq
                    f.Frame.payload)
               : bool));
        loop ()
      in
      loop ()
    with
    | () -> ()
    | exception End_of_file -> close_quietly fd
    | exception Unix.Unix_error _ -> close_quietly fd
    | exception Codec.Corrupt reason ->
      ignore
        (Mailbox.push ep.inbox (fun () ->
             ep.corrupt_rejected <- ep.corrupt_rejected + 1)
          : bool);
      Log.debug (fun m -> m "endpoint %d: quarantining connection: %s" ep.me reason);
      close_quietly fd

  let accept_loop ep () =
    match ep.listen_fd with
    | None -> ()
    | Some lfd -> (
      try
        while ep.running do
          let fd, _peer = Unix.accept lfd in
          if ep.refusing || not ep.running then close_quietly fd
          else begin
            Unix.setsockopt fd Unix.TCP_NODELAY true;
            Mutex.lock ep.em;
            ep.inbound <- fd :: ep.inbound;
            Mutex.unlock ep.em;
            ep.threads <-
              Supervisor.spawn
                ~name:(Printf.sprintf "tcp.recv.%d" ep.me)
                ~restarts:0 (receiver_loop ep fd)
              :: ep.threads
          end
        done
      with Unix.Unix_error _ -> () (* listener closed during shutdown *))

  (* ---------------- driver ---------------- *)

  (* The endpoint's execution context: a single thread that advances the
     private timer wheel to the wall clock (firing due protocol timers) and
     runs posted closures (message deliveries, client submissions, nemesis
     actions), all under the process-wide core lock. *)
  let driver_loop t ep () =
    while ep.running do
      Corelock.with_lock (fun () ->
          Sim.advance_to ep.wheel ~at:(Wallclock.now t.clock));
      match Mailbox.pop ~timeout:0.002 ep.inbox with
      | None -> ()
      | Some f ->
        Corelock.with_lock (fun () ->
            f ();
            (* Drain whatever queued behind it in the same slice. *)
            let rec drain budget =
              if budget > 0 then
                match Mailbox.pop ~timeout:0.0 ep.inbox with
                | None -> ()
                | Some g ->
                  g ();
                  drain (budget - 1)
            in
            drain 256)
    done

  let start t ~me =
    Mutex.lock t.fm;
    (match t.endpoints.(me) with
     | Some _ ->
       Mutex.unlock t.fm;
       invalid_arg (Printf.sprintf "Tcp.start: endpoint %d already started" me)
     | None ->
       let prng = Prng.create (Int64.add t.seed (Int64.of_int me)) in
       let ep =
         {
           me;
           (* Microsecond wall time at start: distinct across restarts of the
              same slot, which is all the dedup watermark reset needs. *)
           incarnation =
             int_of_float (Unix.gettimeofday () *. 1e6) land 0x3FFFFFFFFFFF;
           wheel = Sim.create ~seed:(Int64.add t.seed (Int64.of_int (me + 7919))) ();
           inbox = Mailbox.create ~capacity:t.inbox_capacity;
           handler = None;
           links = Array.make t.n None;
           dedup = Hashtbl.create 16;
           listen_fd = None;
           inbound = [];
           refusing = false;
           paused = false;
           running = true;
           delivered = 0;
           dup_dropped = 0;
           corrupt_rejected = 0;
           keepalives_seen = 0;
           em = Mutex.create ();
           threads = [];
         }
       in
       let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       Unix.setsockopt lfd Unix.SO_REUSEADDR true;
       Unix.bind lfd t.addrs.(me);
       Unix.listen lfd t.n;
       ep.listen_fd <- Some lfd;
       for dst = 0 to t.n - 1 do
         if dst <> me then begin
           let link =
             {
               dst;
               queue = Mailbox.create ~capacity:t.queue_capacity;
               backoff =
                 Timeout.Backoff.create ~initial:t.reconnect_initial
                   ~jitter:t.reconnect_jitter t.reconnect_strategy;
               jitter_prng = Prng.split prng;
               policy_prng = Prng.substream prng ((me * t.n) + dst);
               policy = None;
               seq = 0;
               fd = None;
               connects = 0;
               nemesis_dropped = 0;
               m = Mutex.create ();
             }
           in
           ep.links.(dst) <- Some link
         end
       done;
       t.endpoints.(me) <- Some ep;
       Mutex.unlock t.fm;
       ep.threads <-
         Supervisor.spawn ~name:(Printf.sprintf "tcp.driver.%d" me) ~restarts:3
           (driver_loop t ep)
         :: Supervisor.spawn ~name:(Printf.sprintf "tcp.accept.%d" me) ~restarts:0
             (accept_loop ep)
         :: ep.threads;
       Array.iter
         (function
           | None -> ()
           | Some link ->
             ep.threads <-
               Supervisor.spawn
                 ~name:(Printf.sprintf "tcp.send.%d.%d" me link.dst)
                 ~restarts:0
                 (fun () -> try sender_loop t ep link () with Exit -> ())
               :: ep.threads)
         ep.links)

  let stop t ~me =
    match t.endpoints.(me) with
    | None -> ()
    | Some ep ->
      ep.running <- false;
      Mailbox.close ep.inbox;
      (match ep.listen_fd with
       | Some fd ->
         ep.listen_fd <- None;
         close_quietly fd
       | None -> ());
      Array.iter
        (function
          | None -> ()
          | Some link ->
            Mailbox.close link.queue;
            link_drop_conn link)
        ep.links;
      Mutex.lock ep.em;
      let inbound = ep.inbound in
      ep.inbound <- [];
      Mutex.unlock ep.em;
      List.iter close_quietly inbound;
      List.iter Supervisor.stop ep.threads;
      t.endpoints.(me) <- None

  (* ---------------- nemesis controls ---------------- *)

  let set_policy t ~src ~dst policy =
    match t.endpoints.(src) with
    | None -> ()
    | Some ep -> (
      match ep.links.(dst) with None -> () | Some link -> link.policy <- policy)

  let kill_links t ~me =
    match t.endpoints.(me) with
    | None -> ()
    | Some ep ->
      Array.iter
        (function None -> () | Some link -> link_drop_conn link)
        ep.links;
      Mutex.lock ep.em;
      let inbound = ep.inbound in
      ep.inbound <- [];
      Mutex.unlock ep.em;
      List.iter close_quietly inbound

  let set_refusing t ~me refusing =
    match t.endpoints.(me) with None -> () | Some ep -> ep.refusing <- refusing

  let set_paused t ~me paused =
    match t.endpoints.(me) with None -> () | Some ep -> ep.paused <- paused

  (* ---------------- stats ---------------- *)

  let stats t ~me =
    let ep = endpoint t me in
    let sent = ref 0 and shed = ref 0 and reconnects = ref 0 in
    let nemesis_dropped = ref 0 in
    Array.iter
      (function
        | None -> ()
        | Some link ->
          sent := !sent + link.seq;
          shed := !shed + Mailbox.shed link.queue;
          nemesis_dropped := !nemesis_dropped + link.nemesis_dropped;
          reconnects := !reconnects + max 0 (link.connects - 1))
      ep.links;
    {
      sent = !sent;
      delivered = ep.delivered;
      shed = !shed + Mailbox.shed ep.inbox;
      dup_dropped = ep.dup_dropped;
      corrupt_rejected = ep.corrupt_rejected;
      nemesis_dropped = !nemesis_dropped;
      reconnects = !reconnects;
      keepalives_seen = ep.keepalives_seen;
    }
end
