(* Masking vs reacting: classic PBFT next to PBFT-with-Quorum-Selection.

   The paper's opening observation: BFT systems pay a constant price to
   MASK omission and timing failures (PBFT runs all n = 3f+1 replicas and
   shrugs off f silent ones). Quorum Selection instead runs an active
   quorum of n-f and REACTS when one of them misbehaves. Same fault, two
   philosophies, measured side by side.

   Run with: dune exec examples/pbft_modes.exe *)

open Qs_pbft
module Stime = Qs_sim.Stime

let ms = Stime.of_ms

let run participation label =
  let f = 2 in
  let config =
    {
      Preplica.n = (3 * f) + 1;
      f;
      participation;
      initial_timeout = ms 25;
      timeout_strategy = Qs_fd.Timeout.Exponential { factor = 2.0; max = ms 2000 };
    }
  in
  let c = Pcluster.create config in
  (* Phase 1 — the fault hits: one backup replica is mute from the start.
     Masking sails through; selection pays for a reconfiguration. *)
  Pcluster.set_fault c 2 Preplica.Mute;
  let warmup =
    List.init 5 (fun i -> Pcluster.submit c ~resubmit_every:(ms 150) (Printf.sprintf "w%d" i))
  in
  Pcluster.run ~until:(ms 6000) c;
  let committed = List.length (List.filter (Pcluster.is_committed c) warmup) in
  let phase1 = Pcluster.message_count c in
  (* Phase 2 — steady state: 20 requests after stabilization. This is where
     running only the active quorum pays off, forever. *)
  Qs_sim.Network.reset_counters (Pcluster.net c);
  let steady =
    List.init 20 (fun i -> Pcluster.submit c ~resubmit_every:(ms 150) (Printf.sprintf "s%d" i))
  in
  Pcluster.run ~until:(ms 12000) c;
  let committed2 = List.length (List.filter (Pcluster.is_committed c) steady) in
  let phase2 = Pcluster.message_count c in
  Printf.printf
    "%-36s fault phase: %d/5 committed, %4d msgs, %d view change(s)\n\
     %-36s steady state: %d/20 committed, %4d msgs (%2d per request), active=%s\n"
    label committed phase1 (Pcluster.max_view c) "" committed2 phase2 (phase2 / 20)
    (String.concat ","
       (List.map (fun p -> string_of_int (p + 1)) (Preplica.participants (Pcluster.replica c 0))))

let () =
  print_endline "n = 7 replicas, f = 2, replica p3 is mute from the start.\n";
  run Preplica.Full "classic PBFT (masking):";
  run Preplica.Selected "PBFT + Quorum Selection (reacting):";
  print_endline
    "\nMasking never reconfigures but pays all-to-all traffic among all 7 replicas\n\
     on every request, forever. Selection pays once to re-form the quorum and then\n\
     runs every subsequent request on 5 replicas — the paper's thesis in two rows."
