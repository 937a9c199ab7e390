(* Simulator tests: event ordering, determinism, network delivery semantics,
   FIFO links, filters, and accounting. *)

open Qs_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Sim core *)

let test_sim_runs_in_time_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:30 (fun () -> log := 30 :: !log);
  Sim.schedule sim ~delay:10 (fun () -> log := 10 :: !log);
  Sim.schedule sim ~delay:20 (fun () -> log := 20 :: !log);
  Sim.run sim;
  Alcotest.(check (list int)) "time order" [ 10; 20; 30 ] (List.rev !log)

let test_sim_fifo_ties () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:5 (fun () -> log := "a" :: !log);
  Sim.schedule sim ~delay:5 (fun () -> log := "b" :: !log);
  Sim.schedule sim ~delay:5 (fun () -> log := "c" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "insertion order among ties" [ "a"; "b"; "c" ] (List.rev !log)

let test_sim_clock_advances () =
  let sim = Sim.create () in
  let seen = ref (-1) in
  Sim.schedule sim ~delay:42 (fun () -> seen := Sim.now sim);
  Sim.run sim;
  check_int "clock at event time" 42 !seen

let test_sim_nested_scheduling () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:10 (fun () ->
      log := ("outer", Sim.now sim) :: !log;
      Sim.schedule sim ~delay:5 (fun () -> log := ("inner", Sim.now sim) :: !log));
  Sim.run sim;
  Alcotest.(check (list (pair string int)))
    "nested event at 15"
    [ ("outer", 10); ("inner", 15) ]
    (List.rev !log)

let test_sim_until_limit () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    Sim.schedule sim ~delay:10 tick
  in
  Sim.schedule sim ~delay:10 tick;
  Sim.run ~until:100 sim;
  check_int "ten ticks within 100" 10 !count;
  check_bool "queue still has the next tick" true (Sim.step sim)

let test_sim_max_events_budget () =
  let sim = Sim.create () in
  let rec forever () = Sim.schedule sim ~delay:1 forever in
  Sim.schedule sim ~delay:1 forever;
  Alcotest.check_raises "budget" Sim.Event_budget_exhausted (fun () ->
      Sim.run ~max_events:1000 sim)

let test_sim_negative_delay_clamped () =
  let sim = Sim.create () in
  let ran = ref false in
  Sim.schedule sim ~delay:(-5) (fun () -> ran := true);
  Sim.run sim;
  check_bool "ran at now" true !ran;
  check_int "clock unchanged" 0 (Sim.now sim)

let test_sim_schedule_at_past_clamped () =
  let sim = Sim.create () in
  let at = ref (-1) in
  Sim.schedule sim ~delay:50 (fun () ->
      Sim.schedule_at sim ~at:10 (fun () -> at := Sim.now sim));
  Sim.run sim;
  check_int "clamped to now" 50 !at

let test_sim_determinism () =
  let run_once seed =
    let sim = Sim.create ~seed () in
    let log = ref [] in
    let rng = Sim.prng sim in
    for _ = 1 to 50 do
      let d = Qs_stdx.Prng.int_in rng 1 100 in
      Sim.schedule sim ~delay:d (fun () -> log := Sim.now sim :: !log)
    done;
    Sim.run sim;
    !log
  in
  check_bool "same seed same trace" true (run_once 9L = run_once 9L);
  check_bool "different seed differs" true (run_once 9L <> run_once 10L)

let test_sim_events_executed () =
  let sim = Sim.create () in
  for i = 1 to 7 do
    Sim.schedule sim ~delay:i (fun () -> ())
  done;
  Sim.run sim;
  check_int "counter" 7 (Sim.events_executed sim)

(* ------------------------------------------------------------------ *)
(* Network *)

let make_net ?(n = 3) ?(fifo = false) ?(delay = Network.Fixed 10) ?seed () =
  let sim = Sim.create ?seed () in
  let net = Network.create ~sim ~n ~delay ~fifo () in
  (sim, net)

let test_net_basic_delivery () =
  let sim, net = make_net () in
  let got = ref [] in
  Network.set_handler net 1 (fun ~src m -> got := (src, m, Sim.now sim) :: !got);
  Network.send net ~src:0 ~dst:1 "hello";
  Sim.run sim;
  Alcotest.(check (list (triple int string int))) "delivered with delay"
    [ (0, "hello", 10) ] !got

let test_net_broadcast () =
  let sim, net = make_net () in
  let counts = Array.make 3 0 in
  for i = 0 to 2 do
    Network.set_handler net i (fun ~src:_ _ -> counts.(i) <- counts.(i) + 1)
  done;
  Network.broadcast net ~src:0 "m";
  Sim.run sim;
  Alcotest.(check (array int)) "everyone got it (incl. self)" [| 1; 1; 1 |] counts

let test_net_broadcast_excl_self () =
  let sim, net = make_net () in
  let counts = Array.make 3 0 in
  for i = 0 to 2 do
    Network.set_handler net i (fun ~src:_ _ -> counts.(i) <- counts.(i) + 1)
  done;
  Network.broadcast net ~src:0 ~include_self:false "m";
  Sim.run sim;
  Alcotest.(check (array int)) "self skipped" [| 0; 1; 1 |] counts

let test_net_self_delivery_is_async () =
  (* A self-send must not run inside the sender's call stack. *)
  let sim, net = make_net () in
  let order = ref [] in
  Network.set_handler net 0 (fun ~src:_ _ -> order := "handler" :: !order);
  Network.send net ~src:0 ~dst:0 "m";
  order := "after-send" :: !order;
  Sim.run sim;
  Alcotest.(check (list string)) "async" [ "after-send"; "handler" ] (List.rev !order)

let test_net_fifo_ordering () =
  (* With random delays and FIFO on, messages on one link arrive in send
     order. *)
  let sim, net = make_net ~fifo:true ~delay:(Network.Uniform { lo = 1; hi = 100 }) ~seed:5L () in
  let got = ref [] in
  Network.set_handler net 1 (fun ~src:_ m -> got := m :: !got);
  for i = 1 to 20 do
    Network.send net ~src:0 ~dst:1 i
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "in order" (List.init 20 (fun i -> i + 1)) (List.rev !got)

let test_net_no_fifo_can_reorder () =
  let sim, net = make_net ~fifo:false ~delay:(Network.Uniform { lo = 1; hi = 100 }) ~seed:5L () in
  let got = ref [] in
  Network.set_handler net 1 (fun ~src:_ m -> got := m :: !got);
  for i = 1 to 20 do
    Network.send net ~src:0 ~dst:1 i
  done;
  Sim.run sim;
  check_bool "reordered at least once" true (List.rev !got <> List.init 20 (fun i -> i + 1))

let test_net_filter_drop () =
  let sim, net = make_net () in
  let got = ref 0 in
  Network.set_handler net 1 (fun ~src:_ _ -> incr got);
  Network.set_handler net 2 (fun ~src:_ _ -> incr got);
  ignore
    (Network.add_filter net (fun ~now:_ ~src ~dst _ ->
         if src = 0 && dst = 1 then Network.Drop else Network.Deliver));
  Network.send net ~src:0 ~dst:1 "omitted";
  Network.send net ~src:0 ~dst:2 "fine";
  Sim.run sim;
  check_int "only unfiltered link delivers" 1 !got;
  check_int "dropped counted" 1 (Network.dropped_count net)

let test_net_filter_delay () =
  let sim, net = make_net () in
  let at = ref 0 in
  Network.set_handler net 1 (fun ~src:_ _ -> at := Sim.now sim);
  ignore (Network.add_filter net (fun ~now:_ ~src:_ ~dst:_ _ -> Network.Delay 90));
  Network.send net ~src:0 ~dst:1 "slow";
  Sim.run sim;
  check_int "base 10 + extra 90" 100 !at

let test_net_remove_filter () =
  let sim, net = make_net () in
  let got = ref 0 in
  Network.set_handler net 1 (fun ~src:_ _ -> incr got);
  let id = Network.add_filter net (fun ~now:_ ~src:_ ~dst:_ _ -> Network.Drop) in
  Network.remove_filter net id;
  Network.send net ~src:0 ~dst:1 "m";
  Sim.run sim;
  check_int "filter removed" 1 !got

(* ------------------------------------------------------------------ *)
(* Filter chain (the fault-injection substrate) *)

let test_net_chain_add_remove () =
  let sim, net = make_net () in
  let got = ref 0 in
  Network.set_handler net 1 (fun ~src:_ _ -> incr got);
  let id = Network.add_filter net (fun ~now:_ ~src:_ ~dst:_ _ -> Network.Drop) in
  check_int "one chained filter" 1 (Network.filter_count net);
  Network.send net ~src:0 ~dst:1 "a";
  Sim.run sim;
  check_int "dropped by chained filter" 0 !got;
  Network.remove_filter net id;
  check_int "chain empty again" 0 (Network.filter_count net);
  Network.send net ~src:0 ~dst:1 "b";
  Sim.run sim;
  check_int "delivers after removal" 1 !got

let test_net_chain_first_drop_wins () =
  let sim, net = make_net () in
  let got = ref 0 in
  let late_consulted = ref false in
  Network.set_handler net 1 (fun ~src:_ _ -> incr got);
  ignore (Network.add_filter net (fun ~now:_ ~src:_ ~dst:_ _ -> Network.Drop));
  ignore
    (Network.add_filter net (fun ~now:_ ~src:_ ~dst:_ _ ->
         late_consulted := true;
         Network.Deliver));
  Network.send net ~src:0 ~dst:1 "m";
  Sim.run sim;
  check_int "dropped" 0 !got;
  check_bool "drop short-circuits the rest of the chain" false !late_consulted

let test_net_chain_delays_accumulate () =
  let sim, net = make_net () in
  let at = ref 0 in
  Network.set_handler net 1 (fun ~src:_ _ -> at := Sim.now sim);
  ignore (Network.add_filter net (fun ~now:_ ~src:_ ~dst:_ _ -> Network.Delay 40));
  ignore (Network.add_filter net (fun ~now:_ ~src:_ ~dst:_ _ -> Network.Delay 25));
  Network.send net ~src:0 ~dst:1 "slow";
  Sim.run sim;
  check_int "base 10 + 40 + 25" 75 !at

let test_net_chain_duplicate () =
  let sim, net = make_net () in
  let got = ref 0 in
  Network.set_handler net 1 (fun ~src:_ _ -> incr got);
  ignore (Network.add_filter net (fun ~now:_ ~src:_ ~dst:_ _ -> Network.Duplicate 3));
  ignore (Network.add_filter net (fun ~now:_ ~src:_ ~dst:_ _ -> Network.Duplicate 2));
  Network.send net ~src:0 ~dst:1 "m";
  Sim.run sim;
  check_int "largest duplication wins" 3 !got

let test_net_chain_composes_across_installers () =
  (* A harness-installed filter and an injector-installed one compose: their
     Delays add up, and an earlier filter's Drop wins outright. Replaces the
     retired single-slot [set_filter] composition test. *)
  let sim, net = make_net () in
  let at = ref 0 in
  Network.set_handler net 1 (fun ~src:_ _ -> at := Sim.now sim);
  let first = Network.add_filter net (fun ~now:_ ~src:_ ~dst:_ _ -> Network.Delay 30) in
  ignore (Network.add_filter net (fun ~now:_ ~src:_ ~dst:_ _ -> Network.Delay 20));
  Network.send net ~src:0 ~dst:1 "m";
  Sim.run sim;
  check_int "both installers' delays accumulate" 60 !at;
  Network.remove_filter net first;
  ignore (Network.add_filter net (fun ~now:_ ~src:_ ~dst:_ _ -> Network.Drop));
  at := -1;
  Network.send net ~src:0 ~dst:1 "m";
  Sim.run sim;
  check_int "drop beats the surviving delay" (-1) !at

let test_net_chain_self_send_bypasses () =
  let sim, net = make_net () in
  let got = ref 0 in
  Network.set_handler net 0 (fun ~src:_ _ -> incr got);
  ignore (Network.add_filter net (fun ~now:_ ~src:_ ~dst:_ _ -> Network.Drop));
  Network.send net ~src:0 ~dst:0 "self";
  Sim.run sim;
  check_int "self delivery ignores filters" 1 !got

let test_net_eventually_synchronous () =
  let sim = Sim.create ~seed:3L () in
  let net =
    Network.create ~sim ~n:2
      ~delay:
        (Network.Eventually_synchronous
           { gst = 1000; pre_lo = 1; pre_hi = 500; post_lo = 5; post_hi = 20 })
      ()
  in
  let latencies = ref [] in
  let send_at = ref 0 in
  Network.set_handler net 1 (fun ~src:_ sent -> latencies := (Sim.now sim - sent) :: !latencies);
  (* One message before GST, several after. *)
  Network.send net ~src:0 ~dst:1 !send_at;
  Sim.schedule_at sim ~at:2000 (fun () ->
      for _ = 1 to 30 do
        Network.send net ~src:0 ~dst:1 (Sim.now sim)
      done);
  Sim.run sim;
  let post = List.filteri (fun i _ -> i < 30) !latencies in
  (* list is reversed: last 30 sends are first *)
  List.iter (fun l -> check_bool "post-GST bounded" true (l >= 5 && l <= 20)) post

let test_net_counters () =
  let sim, net = make_net () in
  Network.set_handler net 1 (fun ~src:_ _ -> ());
  Network.send net ~src:0 ~dst:1 "a";
  Network.send net ~src:0 ~dst:1 "b";
  Network.send net ~src:2 ~dst:1 "c";
  Network.send net ~src:0 ~dst:0 "self";
  Sim.run sim;
  check_int "sent excludes self" 3 (Network.sent_count net);
  check_int "delivered includes self" 4 (Network.delivered_count net);
  check_int "link 0->1" 2 (Network.link_sent net ~src:0 ~dst:1);
  Network.reset_counters net;
  check_int "reset" 0 (Network.sent_count net)

let test_net_unhandled_endpoint_ok () =
  let sim, net = make_net () in
  Network.send net ~src:0 ~dst:2 "void";
  Sim.run sim;
  check_int "counted though discarded" 1 (Network.delivered_count net)

(* ------------------------------------------------------------------ *)
(* Controlled mode + snapshot/restore (the model checker's choice points) *)

let test_ctrl_parks_messages () =
  let sim, net = make_net () in
  let got = ref [] in
  Network.set_handler net 1 (fun ~src m -> got := (src, m, Sim.now sim) :: !got);
  Network.set_controlled net true;
  check_bool "flag" true (Network.controlled net);
  Network.send net ~src:0 ~dst:1 "a";
  Network.send net ~src:2 ~dst:1 "b";
  Sim.run sim;
  check_int "nothing delivered by the sim" 0 (List.length !got);
  check_int "both parked" 2 (Network.pending_count net);
  check_int "unordered net: all deliverable" 2 (List.length (Network.deliverable net));
  let id_b =
    match List.find (fun (_, src, _, _) -> src = 2) (Network.pending net) with
    | id, _, _, _ -> id
  in
  check_bool "deliver_now" true (Network.deliver_now net id_b);
  Alcotest.(check (list (triple int string int)))
    "synchronous, zero latency" [ (2, "b", 0) ] !got;
  check_int "removed from pending" 1 (Network.pending_count net);
  check_bool "unknown id is a no-op" false (Network.deliver_now net id_b)

let test_ctrl_fifo_oldest_per_link () =
  let sim, net = make_net ~fifo:true () in
  Network.set_handler net 1 (fun ~src:_ _ -> ());
  Network.set_controlled net true;
  Network.send net ~src:0 ~dst:1 "first";
  Network.send net ~src:0 ~dst:1 "second";
  Network.send net ~src:2 ~dst:1 "other-link";
  Sim.run sim;
  let dlv = Network.deliverable net in
  check_int "one per link" 2 (List.length dlv);
  let payloads = List.map (fun (_, _, _, m) -> m) dlv in
  check_bool "oldest of 0->1 only" true
    (List.mem "first" payloads && not (List.mem "second" payloads));
  (match List.find (fun (_, _, _, m) -> m = "first") dlv with
  | id, _, _, _ -> ignore (Network.deliver_now net id));
  check_bool "successor becomes deliverable" true
    (List.exists (fun (_, _, _, m) -> m = "second") (Network.deliverable net))

let test_ctrl_filters_still_apply () =
  let sim, net = make_net () in
  Network.set_handler net 1 (fun ~src:_ _ -> ());
  Network.set_controlled net true;
  ignore
    (Network.add_filter net (fun ~now:_ ~src ~dst:_ _ ->
         if src = 2 then Network.Drop else Network.Duplicate 2));
  Network.send net ~src:0 ~dst:1 "dup";
  Network.send net ~src:2 ~dst:1 "dropped";
  Sim.run sim;
  check_int "duplicate parks two copies, drop parks none" 2 (Network.pending_count net);
  check_int "drop counted" 1 (Network.dropped_count net)

let test_ctrl_snapshot_restores_pending () =
  let sim, net = make_net () in
  let got = ref 0 in
  Network.set_handler net 1 (fun ~src:_ _ -> incr got);
  Network.set_controlled net true;
  Network.send net ~src:0 ~dst:1 "a";
  Network.send net ~src:0 ~dst:1 "b";
  Sim.run sim;
  let snap = Network.snapshot net in
  let ids = List.map (fun (id, _, _, _) -> id) (Network.pending net) in
  List.iter (fun id -> ignore (Network.deliver_now net id)) ids;
  Network.send net ~src:2 ~dst:1 "c";
  Sim.run sim;
  check_int "drained and refilled" 1 (Network.pending_count net);
  check_int "two delivered" 2 !got;
  Network.restore net snap;
  check_int "pending set rolled back" 2 (Network.pending_count net);
  check_bool "original ids deliverable again" true
    (List.for_all (fun id -> List.mem id (List.map (fun (i, _, _, _) -> i) (Network.pending net))) ids);
  check_int "delivered counter rolled back" 0 (Network.delivered_count net);
  (* The id allocator is rolled back too, so a re-run of the same sends
     reassigns the same ids — replays stay aligned. *)
  Network.send net ~src:2 ~dst:1 "c";
  Sim.run sim;
  let fresh = List.map (fun (id, _, _, _) -> id) (Network.pending net) in
  check_bool "allocator rolled back" true (List.length (List.sort_uniq compare fresh) = 3)

let test_ctrl_restore_filter_chain () =
  (* Satellite: first-Drop-wins must survive a snapshot/restore cycle. *)
  let sim, net = make_net () in
  Network.set_handler net 1 (fun ~src:_ _ -> ());
  Network.set_controlled net true;
  let drop_id = Network.add_filter net (fun ~now:_ ~src:_ ~dst:_ _ -> Network.Drop) in
  let snap = Network.snapshot net in
  Network.remove_filter net drop_id;
  ignore (Network.add_filter net (fun ~now:_ ~src:_ ~dst:_ _ -> Network.Duplicate 2));
  Network.send net ~src:0 ~dst:1 "x";
  Sim.run sim;
  check_int "without the drop: duplicated" 2 (Network.pending_count net);
  Network.restore net snap;
  check_int "chain rolled back with pending" 0 (Network.pending_count net);
  Network.send net ~src:0 ~dst:1 "x";
  Sim.run sim;
  check_int "restored chain: first Drop wins again" 0 (Network.pending_count net);
  check_int "dropped" 1 (Network.dropped_count net)

let test_restore_delay_accumulation () =
  (* Satellite: chained Delays keep accumulating after a restore, on a live
     (uncontrolled) net — the chain snapshot is not limited to mc runs. *)
  let sim, net = make_net () in
  let at = ref (-1) in
  Network.set_handler net 1 (fun ~src:_ _ -> at := Sim.now sim);
  ignore (Network.add_filter net (fun ~now:_ ~src:_ ~dst:_ _ -> Network.Delay 20));
  let keep = Network.add_filter net (fun ~now:_ ~src:_ ~dst:_ _ -> Network.Delay 30) in
  let snap = Network.snapshot net in
  Network.remove_filter net keep;
  Network.send net ~src:0 ~dst:1 "m";
  Sim.run sim;
  check_int "one delay left" (10 + 20) !at;
  Network.restore net snap;
  at := -1;
  let t0 = Sim.now sim in
  Network.send net ~src:0 ~dst:1 "m";
  Sim.run sim;
  check_int "both delays accumulate after restore" (10 + 20 + 30) (!at - t0)

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_records_flow () =
  let sim, net = make_net () in
  let tr = Trace.create () in
  Trace.attach tr ~label:(fun m -> m) net;
  Network.set_handler net 1 (fun ~src:_ _ -> ());
  Network.send net ~src:0 ~dst:1 "PREPARE";
  Sim.run sim;
  let es = Trace.entries tr in
  check_int "send + deliver" 2 (List.length es);
  let labels = List.map (fun e -> e.Trace.label) es in
  Alcotest.(check (list string)) "labels" [ "PREPARE"; "PREPARE" ] labels;
  check_int "one delivery" 1 (List.length (Trace.deliveries tr));
  check_bool "render mentions PREPARE" true
    (String.length (Trace.render tr) > 0)

let test_trace_clear () =
  let sim, net = make_net () in
  let tr = Trace.create () in
  Trace.attach tr ~label:(fun m -> m) net;
  Network.send net ~src:0 ~dst:1 "x";
  Sim.run sim;
  Trace.clear tr;
  check_int "cleared" 0 (List.length (Trace.entries tr))

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_network_deterministic =
  QCheck.Test.make ~name:"same seed, same delivery schedule" ~count:30
    QCheck.(int_range 1 1000)
    (fun seed ->
      let run () =
        let sim = Sim.create ~seed:(Int64.of_int seed) () in
        let net = Network.create ~sim ~n:4 ~delay:(Network.Uniform { lo = 1; hi = 50 }) () in
        let log = ref [] in
        for i = 0 to 3 do
          Network.set_handler net i (fun ~src m -> log := (Sim.now sim, src, i, m) :: !log)
        done;
        for i = 0 to 3 do
          Network.broadcast net ~src:i i
        done;
        Sim.run sim;
        !log
      in
      run () = run ())

let prop_fifo_preserves_order =
  QCheck.Test.make ~name:"fifo links never reorder" ~count:50
    QCheck.(pair (int_range 1 100) (int_range 2 30))
    (fun (seed, k) ->
      let sim = Sim.create ~seed:(Int64.of_int seed) () in
      let net =
        Network.create ~sim ~n:2 ~delay:(Network.Uniform { lo = 1; hi = 80 }) ~fifo:true ()
      in
      let got = ref [] in
      Network.set_handler net 1 (fun ~src:_ m -> got := m :: !got);
      for i = 1 to k do
        Network.send net ~src:0 ~dst:1 i
      done;
      Sim.run sim;
      List.rev !got = List.init k (fun i -> i + 1))

(* Smr_cluster: the shared cluster body, over a toy replica that executes a
   request the moment it is handed one (unless muted). *)

module Toy = struct
  type t = {
    mutable muted : bool;
    mutable log : Smr_cluster.request list;
    on_execute : Smr_cluster.request -> unit;
  }

  type msg = unit

  type config = { n : int; k : int }

  type fault = bool

  let n c = c.n

  let setup _ ~me:_ ~sim:_ ~net_send:_ ~on_execute = { muted = false; log = []; on_execute }

  let stamp_threshold c = c.k

  let commit_rule c = Smr_cluster.At_least c.k

  let receive _ ~src:_ () = ()

  let submit t r =
    if (not t.muted) && not (List.mem r t.log) then begin
      t.log <- t.log @ [ r ];
      t.on_execute r
    end

  let executed t = t.log

  let set_fault t muted = t.muted <- muted

  let write_key t key =
    Qs_stdx.State_key.(add_list key (fun r -> add_string key (Smr_cluster.encode_request r)))
      t.log

  let encode () = ""
end

module Toy_cluster = Smr_cluster.Make (Toy)

let test_smr_prefix () =
  check_bool "prefix" true (Smr_cluster.prefix_compatible [ 1; 2 ] [ 1; 2; 3 ]);
  check_bool "either way" true (Smr_cluster.prefix_compatible [ 1; 2; 3 ] [ 1 ]);
  check_bool "diverged" false (Smr_cluster.prefix_compatible [ 1; 3 ] [ 1; 2 ]);
  check_bool "consistent" true
    (Smr_cluster.prefix_consistent [ [ 1; 2; 3 ]; [ 1; 2 ]; []; [ 1; 2; 3; 4 ] ]);
  check_bool "one divergent pair" false
    (Smr_cluster.prefix_consistent [ [ 1; 2 ]; [ 1 ]; [ 1; 3 ] ])

let test_smr_commit_and_resubmit () =
  let c = Toy_cluster.create { Toy.n = 3; k = 2 } in
  Toy_cluster.set_fault c 0 true;
  Toy_cluster.set_fault c 1 true;
  let r = Toy_cluster.submit c ~resubmit_every:10 "op" in
  Sim.schedule_at (Toy_cluster.sim c) ~at:25 (fun () -> Toy_cluster.set_fault c 1 false);
  Toy_cluster.run ~until:20 c;
  Alcotest.(check (list int)) "one execution" [ 2 ] (Toy_cluster.executed_by c r);
  check_bool "not committed" false (Toy_cluster.is_committed c r);
  Toy_cluster.run c;
  Alcotest.(check (list int)) "executed by" [ 1; 2 ] (Toy_cluster.executed_by c r);
  check_bool "committed" true (Toy_cluster.is_committed c r);
  Alcotest.(check (option int)) "stamped at the resubmit" (Some 30)
    (Toy_cluster.commit_latency c r);
  Alcotest.(check (list (pair int int))) "history" [ (0, 0) ] (Toy_cluster.history c 1);
  check_bool "consistent" true (Toy_cluster.consistent c ~correct:[ 0; 1; 2 ])

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_network_deterministic; prop_fifo_preserves_order ]

let () =
  Alcotest.run "sim"
    [
      ( "sim",
        [
          Alcotest.test_case "time order" `Quick test_sim_runs_in_time_order;
          Alcotest.test_case "fifo ties" `Quick test_sim_fifo_ties;
          Alcotest.test_case "clock" `Quick test_sim_clock_advances;
          Alcotest.test_case "nested scheduling" `Quick test_sim_nested_scheduling;
          Alcotest.test_case "until limit" `Quick test_sim_until_limit;
          Alcotest.test_case "event budget" `Quick test_sim_max_events_budget;
          Alcotest.test_case "negative delay" `Quick test_sim_negative_delay_clamped;
          Alcotest.test_case "past schedule_at" `Quick test_sim_schedule_at_past_clamped;
          Alcotest.test_case "determinism" `Quick test_sim_determinism;
          Alcotest.test_case "event counter" `Quick test_sim_events_executed;
        ] );
      ( "network",
        [
          Alcotest.test_case "basic delivery" `Quick test_net_basic_delivery;
          Alcotest.test_case "broadcast" `Quick test_net_broadcast;
          Alcotest.test_case "broadcast excl self" `Quick test_net_broadcast_excl_self;
          Alcotest.test_case "self delivery async" `Quick test_net_self_delivery_is_async;
          Alcotest.test_case "fifo ordering" `Quick test_net_fifo_ordering;
          Alcotest.test_case "non-fifo reorders" `Quick test_net_no_fifo_can_reorder;
          Alcotest.test_case "filter drop" `Quick test_net_filter_drop;
          Alcotest.test_case "filter delay" `Quick test_net_filter_delay;
          Alcotest.test_case "remove filter" `Quick test_net_remove_filter;
          Alcotest.test_case "chain add/remove" `Quick test_net_chain_add_remove;
          Alcotest.test_case "chain first drop wins" `Quick test_net_chain_first_drop_wins;
          Alcotest.test_case "chain delays accumulate" `Quick test_net_chain_delays_accumulate;
          Alcotest.test_case "chain duplicate" `Quick test_net_chain_duplicate;
          Alcotest.test_case "chain composes across installers" `Quick
            test_net_chain_composes_across_installers;
          Alcotest.test_case "chain self-send bypass" `Quick test_net_chain_self_send_bypasses;
          Alcotest.test_case "eventual synchrony" `Quick test_net_eventually_synchronous;
          Alcotest.test_case "counters" `Quick test_net_counters;
          Alcotest.test_case "unhandled endpoint" `Quick test_net_unhandled_endpoint_ok;
        ] );
      ( "controlled",
        [
          Alcotest.test_case "parks and delivers by id" `Quick test_ctrl_parks_messages;
          Alcotest.test_case "fifo oldest per link" `Quick test_ctrl_fifo_oldest_per_link;
          Alcotest.test_case "filters still apply" `Quick test_ctrl_filters_still_apply;
          Alcotest.test_case "snapshot restores pending" `Quick test_ctrl_snapshot_restores_pending;
          Alcotest.test_case "restore keeps first-drop-wins" `Quick test_ctrl_restore_filter_chain;
          Alcotest.test_case "restore keeps delay accumulation" `Quick
            test_restore_delay_accumulation;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records flow" `Quick test_trace_records_flow;
          Alcotest.test_case "clear" `Quick test_trace_clear;
        ] );
      ( "smr_cluster",
        [
          Alcotest.test_case "prefix consistency" `Quick test_smr_prefix;
          Alcotest.test_case "commit stamp and resubmission" `Quick
            test_smr_commit_and_resubmit;
        ] );
      ("properties", qsuite);
    ]
