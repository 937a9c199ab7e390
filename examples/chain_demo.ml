(* Chain replication with Quorum Selection (the BChain idea, paper Section I).

   The active quorum forms a chain: one forward pass, one ack pass —
   2(q-1) messages per request instead of q^2-1 all-to-all. When a chain
   member omits messages, position-scaled expectations blame the right
   link, quorum selection excises the suspect pair, and the chain re-forms.

   Run with: dune exec examples/chain_demo.exe *)

open Qs_bchain
module Stime = Qs_sim.Stime
module Pid = Qs_core.Pid

let ms = Stime.of_ms

let show_chain cluster label =
  let node = Chain_cluster.replica cluster 5 in
  Printf.printf "%-38s chain: %s\n" label
    (String.concat " -> " (List.map Pid.to_string (Chain_node.chain node)))

let () =
  let config =
    {
      Chain_node.n = 7;
      f = 2;
      initial_timeout = ms 25;
      timeout_strategy = Qs_fd.Timeout.Exponential { factor = 2.0; max = ms 2000 };
    }
  in
  let cluster = Chain_cluster.create ~seed:11L config in
  show_chain cluster "initial:";

  let r1 = Chain_cluster.submit cluster "SET a 1" in
  Chain_cluster.run ~until:(ms 100) cluster;
  Printf.printf "request 1 committed by %s with %d messages (2(q-1) = %d)\n"
    (Pid.set_to_string (Chain_cluster.executed_by cluster r1))
    (Chain_cluster.message_count cluster)
    (2 * (5 - 1));

  (* p3 starts dropping everything to its successor. *)
  print_endline "\np3 now omits all messages to p4...";
  Chain_cluster.set_fault cluster 2 (Chain_node.Omit_to [ 3 ]);
  let r2 = Chain_cluster.submit cluster ~resubmit_every:(ms 100) "SET b 2" in
  Chain_cluster.run ~until:(ms 8000) cluster;
  show_chain cluster "after re-chaining:";
  Printf.printf "request 2 committed: %b (executed by %s)\n"
    (Chain_cluster.is_committed cluster r2)
    (Pid.set_to_string (Chain_cluster.executed_by cluster r2));

  (* The suspicion that triggered it, straight from quorum selection: *)
  let qs = Chain_node.quorum_selector (Chain_cluster.replica cluster 5) in
  Printf.printf "\nquorum selection at p6: epoch=%d quorum=%s\n"
    (Qs_core.Quorum_select.epoch qs)
    (Pid.set_to_string (Qs_core.Quorum_select.last_quorum qs))
