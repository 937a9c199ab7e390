(* Measuring wrappers around the layers' public functions. Each passes every
   call through unchanged; with tracing off they install the wrapped
   function itself, so an untraced run executes exactly the shipped code. *)

module Envelope = Qs_runtime.Envelope
module Engine = Qs_mc.Engine

(* The client request id an envelope carries, where it carries one. *)
let rid_of = function
  | Envelope.Proto { Qs_xpaxos.Xmsg.body = Prepare sp; _ }
  | Envelope.Proto { Qs_xpaxos.Xmsg.body = Commit { csp = sp; _ }; _ } ->
    let r = sp.Qs_xpaxos.Xmsg.prepare.Qs_xpaxos.Xmsg.request in
    (r.Qs_xpaxos.Xmsg.client * 1_000_000) + r.Qs_xpaxos.Xmsg.rid
  | _ -> -1

(* The span a posted closure runs under, and its request id. Set by the
   caller of [post] (the benchmark's client or fault injector) around the
   call into the node; posts are single-threaded like every traced call. *)
let post_label = ref "xpaxos.submit"

let post_rid = ref (-1)

let posting ?(rid = -1) label f =
  post_label := label;
  post_rid := rid;
  Fun.protect f ~finally:(fun () ->
      post_label := "xpaxos.submit";
      post_rid := -1)

(* Stamp every send with its wall time, per link, to measure one-way time
   to the receiving handler. Only meaningful on a real transport. *)
let one_way = ref false

module Transport
    (T : Qs_runtime.Transport.TRANSPORT with type msg = Envelope.t) :
  Qs_runtime.Transport.TRANSPORT with type t = T.t and type msg = Envelope.t = struct
  type t = T.t

  type msg = Envelope.t

  let n = T.n

  let sim = T.sim

  (* Per-link FIFO of (send time, message hash). A receiver pops until the
     hash matches, discarding stamps of messages the link lost. *)
  let links : (int * int, (float * int) Queue.t) Hashtbl.t = Hashtbl.create 64

  let link src dst =
    match Hashtbl.find_opt links (src, dst) with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.add links (src, dst) q;
      q

  let send t ~src ~dst m =
    if not !Spans.on then T.send t ~src ~dst m
    else begin
      Spans.count
        (match m with Envelope.Proto _ -> "xpaxos.msgs" | Envelope.Rejoin _ -> "recovery.msgs")
        1;
      if !one_way then Queue.push (Spans.now (), Hashtbl.hash m) (link src dst);
      Spans.span "transport.send" ~rid:(rid_of m) (fun () -> T.send t ~src ~dst m)
    end

  let arrived ~src ~dst m =
    let q = link src dst and h = Hashtbl.hash m in
    let rec pop () =
      match Queue.take_opt q with
      | Some (at, h') when h' = h -> Spans.sample "transport.one_way" (Spans.now () -. at)
      | Some _ -> pop ()
      | None -> ()
    in
    pop ()

  let set_handler t i h =
    if not !Spans.on then T.set_handler t i h
    else
      T.set_handler t i (fun ~src m ->
          if !one_way then arrived ~src ~dst:i m;
          let name =
            match m with
            | Envelope.Proto _ -> "xpaxos.handle"
            | Envelope.Rejoin _ -> "recovery.handle"
          in
          Spans.span name ~rid:(rid_of m) (fun () -> h ~src m))

  let post t i f =
    if not !Spans.on then T.post t i f
    else
      let posted = Spans.now () and name = !post_label and rid = !post_rid in
      T.post t i (fun () ->
          Spans.sample "transport.post_wait" (Spans.now () -. posted);
          Spans.span name ~rid f)
end

(* The envelope codec as the TCP fabric's WIRE, timed and byte-counted. *)
module Wire = struct
  type msg = Envelope.t

  let encode m =
    if not !Spans.on then Envelope.encode m
    else
      let s = Spans.span "wire.encode" ~rid:(rid_of m) (fun () -> Envelope.encode m) in
      Spans.count "wire.bytes" (String.length s);
      s

  let decode s =
    if not !Spans.on then Envelope.decode s
    else Spans.span "wire.decode" (fun () -> Envelope.decode s)
end

(* ---------------------------------------------------------------- mc *)

(* Per-system (hence per-domain: each shard builds its own system inside
   its domain) accumulators, registered under a mutex and merged after the
   shards join. Every closure is timed. [busy] collects the time spent in
   closures since the last transition; each transition closes one sample of
   [work], the explorer's busy time per transition — idle waits at the
   deepening barriers are left out, and show in [mc.barrier_s]. *)
type mc_acc = {
  mutable apply_s : float;
  mutable fingerprint_s : float;
  mutable symmetry_s : float;
  mutable snapshot_s : float;
  mutable other_s : float;  (** reset, enabled, violation checks *)
  mutable applies : int;
  mutable busy : float;
  mutable work : float list;
}

let mc_accs : mc_acc list ref = ref []

let mc_lock = Mutex.create ()

let mc_reset () =
  Mutex.lock mc_lock;
  mc_accs := [];
  Mutex.unlock mc_lock

let mc_collect () =
  Mutex.lock mc_lock;
  let l = !mc_accs in
  Mutex.unlock mc_lock;
  l

let system (s : Engine.system) : Engine.system =
  let a =
    {
      apply_s = 0.;
      fingerprint_s = 0.;
      symmetry_s = 0.;
      snapshot_s = 0.;
      other_s = 0.;
      applies = 0;
      busy = 0.;
      work = [];
    }
  in
  Mutex.lock mc_lock;
  mc_accs := a :: !mc_accs;
  Mutex.unlock mc_lock;
  let timed add f =
    let t0 = Spans.now () in
    let v = f () in
    let d = Spans.now () -. t0 in
    add d;
    a.busy <- a.busy +. d;
    v
  in
  let other f = timed (fun d -> a.other_s <- a.other_s +. d) f in
  let snap f = timed (fun d -> a.snapshot_s <- a.snapshot_s +. d) f in
  {
    Engine.reset = (fun () -> other s.Engine.reset);
    enabled = (fun () -> other s.Engine.enabled);
    apply =
      (fun c ->
        let v = timed (fun d -> a.apply_s <- a.apply_s +. d) (fun () -> s.Engine.apply c) in
        a.applies <- a.applies + 1;
        a.work <- a.busy :: a.work;
        a.busy <- 0.;
        v);
    fingerprint =
      (fun () -> timed (fun d -> a.fingerprint_s <- a.fingerprint_s +. d) s.Engine.fingerprint);
    violations = (fun () -> other s.Engine.violations);
    quiescent_violations = (fun () -> other s.Engine.quiescent_violations);
    snapshot =
      Option.map
        (fun capture () ->
          let restore = snap capture in
          fun () -> snap restore)
        s.Engine.snapshot;
    symmetry =
      Option.map
        (fun canon () -> timed (fun d -> a.symmetry_s <- a.symmetry_s +. d) canon)
        s.Engine.symmetry;
  }
