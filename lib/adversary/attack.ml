module Xcluster = Qs_xpaxos.Xcluster
module Replica = Qs_xpaxos.Replica
module Fault = Qs_faults.Fault
module Injector = Qs_faults.Injector

type t =
  | Mute_replicas of int list
  | Omit_links of (int * int) list
  | Delay_links of ((int * int) * Qs_sim.Stime.t) list
  | Equivocate of { leader : int; victim : int }
  | Ramp_delay of {
      src : int;
      dst : int;
      step : Qs_sim.Stime.t;
      every : Qs_sim.Stime.t;
    }

let horizon = Qs_sim.Stime.of_ms 60_000

let to_schedule = function
  | Mute_replicas rs -> List.map (fun r -> Fault.at (Fault.Crash r)) rs
  | Omit_links links ->
    List.map (fun (src, dst) -> Fault.at (Fault.Omit { src; dst })) links
  | Delay_links links ->
    List.map (fun ((src, dst), by) -> Fault.at (Fault.Delay { src; dst; by })) links
  | Equivocate _ -> [] (* commission: a replica behavior, not a link fault *)
  | Ramp_delay { src; dst; step; every } ->
    (* Chained [Delay] filters accumulate, so a permanent phase per step
       yields the ever-growing delay of the "increasing timing failure". *)
    List.init (horizon / every) (fun k ->
        Fault.at ~start:((k + 1) * every) (Fault.Delay { src; dst; by = step }))

let apply cluster attack =
  (match attack with
   | Equivocate { leader; victim } ->
     Xcluster.set_fault cluster leader (Replica.Equivocate victim)
   | _ -> ());
  let set_mute p m =
    Xcluster.set_fault cluster p (if m then Replica.Mute else Replica.Honest)
  in
  ignore (Injector.install ~net:(Xcluster.net cluster) ~set_mute (to_schedule attack))

let describe = function
  | Mute_replicas rs ->
    Printf.sprintf "mute replicas %s" (String.concat "," (List.map string_of_int rs))
  | Omit_links links -> Printf.sprintf "omit %d links" (List.length links)
  | Delay_links links -> Printf.sprintf "delay %d links" (List.length links)
  | Equivocate { leader; victim } -> Printf.sprintf "leader %d equivocates to %d" leader victim
  | Ramp_delay { src; dst; _ } -> Printf.sprintf "increasing delay on %d->%d" src dst
