(* A replicated key-value store on XPaxos with quorum selection.

   This is the paper's motivating scenario (Section I): a BFT state machine
   that runs on an active quorum only, masks nothing it does not have to,
   and — thanks to the expectation-based failure detector plus Quorum
   Selection — routes around processes that omit or delay messages instead
   of enumerating quorums.

   Run with: dune exec examples/smr_service.exe *)

open Qs_xpaxos
module Stime = Qs_sim.Stime

let ms = Stime.of_ms

(* The state machine: ops are "SET key value"; each replica applies its
   executed prefix. Determinism across replicas is exactly the consistency
   the tests assert. *)
let apply store op =
  match String.split_on_char ' ' op with
  | [ "SET"; key; value ] -> Hashtbl.replace store key value
  | _ -> ()

let () =
  let config =
    {
      Replica.n = 5;
      f = 2;
      mode = Replica.Quorum_selection;
      initial_timeout = ms 25;
      timeout_strategy = Qs_fd.Timeout.Exponential { factor = 2.0; max = ms 2000 };
    }
  in
  let cluster = Xcluster.create ~seed:7L config in

  (* Attach a store to each replica. *)
  let stores = Array.init 5 (fun _ -> Hashtbl.create 16) in
  (* Replicas expose executions through the cluster; we rebuild stores from
     the executed prefixes at the end (on_execute wiring is owned by the
     cluster here). *)
  let requests = ref [] in
  let submit op =
    requests := Xcluster.submit cluster ~resubmit_every:(ms 120) op :: !requests
  in

  print_endline "Phase 1: normal operation (active quorum {p1,p2,p3})";
  submit "SET user alice";
  submit "SET balance 100";
  Xcluster.run ~until:(ms 500) cluster;

  print_endline "Phase 2: p1 (the leader) starts omitting all messages";
  Xcluster.set_fault cluster 0 Replica.Mute;
  submit "SET balance 250";
  submit "SET status gold";
  Xcluster.run ~until:(ms 8000) cluster;

  print_endline "Phase 3: the quorum routed around p1; service continued\n";

  (* Rebuild stores from executed prefixes. *)
  Array.iteri
    (fun i store ->
      List.iter (fun r -> apply store r.Xmsg.op) (Replica.executed (Xcluster.replica cluster i)))
    stores;

  List.iter
    (fun p ->
      let r = Xcluster.replica cluster p in
      Printf.printf "replica p%d: view=%d group=%s executed=%d ops\n" (p + 1) (Replica.view r)
        (Qs_core.Pid.set_to_string (Replica.group r))
        (List.length (Replica.executed r)))
    [ 1; 2; 3; 4 ];

  print_newline ();
  let committed = List.filter (Xcluster.is_committed cluster) !requests in
  Printf.printf "committed %d/%d client requests\n" (List.length committed)
    (List.length !requests);

  (* All correct replicas agree on the store contents. *)
  let dump store =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) store [])
  in
  let reference = dump stores.(1) in
  let consistent =
    List.for_all (fun p -> dump stores.(p) = reference || Hashtbl.length stores.(p) = 0) [ 2; 3; 4 ]
  in
  Printf.printf "stores consistent across correct replicas: %b\n" consistent;
  List.iter (fun (k, v) -> Printf.printf "  %s = %s\n" k v) reference;

  (* What quorum selection learned about p1: *)
  match Replica.quorum_selector (Xcluster.replica cluster 1) with
  | Some qs ->
    Printf.printf "\nquorum selection at p2: quorum=%s (p1 excluded: %b)\n"
      (Qs_core.Pid.set_to_string (Qs_core.Quorum_select.last_quorum qs))
      (not (List.mem 0 (Qs_core.Quorum_select.last_quorum qs)))
  | None -> ()
