(* The benchmark's own statistics: percentiles under the ten-samples-beyond
   rule, medians, and outage extraction from a commit timeline. *)

(* Percentiles in permille, highest first: p99, p95, p90, p75, p50. *)
let ladder = [ 990; 950; 900; 750; 500 ]

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest rank r (1-based) with at least pm/1000 of the
   n samples at or below it. Integer arithmetic, so p99 of 1000 samples is
   rank 990 exactly. *)
let rank ~n pm = max 1 (((pm * n) + 999) / 1000)

let percentile a pm =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  a.(rank ~n pm - 1)

(* The highest percentile of [ladder] that leaves at least ten samples
   strictly above its rank, with its value; [None] when even the median
   does not qualify. [a] must be sorted. *)
let tail a =
  let n = Array.length a in
  List.find_map
    (fun pm ->
      let r = rank ~n pm in
      if n - r >= 10 then Some (pm, a.(r - 1)) else None)
    ladder

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The faster quartile of per-trial values, by nearest rank: the lower
   quartile of a time, the upper quartile of a rate. On a shared host the
   CPU changes speed from second to second, and interference only ever
   slows a trial down, so the faster trials are the steadier estimate of
   the program's own speed. *)
let fast_quartile ~lower_is_better xs =
  let a = sorted xs in
  if Array.length a = 0 then invalid_arg "Stats.fast_quartile: no samples";
  percentile a (if lower_is_better then 250 else 750)

(* Every pair of histories agrees on their common prefix. *)
let prefix_consistent histories =
  let rec is_prefix = function
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> x = y && is_prefix (xs, ys)
  in
  let agree a b = if List.length a <= List.length b then is_prefix (a, b) else is_prefix (b, a) in
  let rec go = function [] -> true | h :: rest -> List.for_all (agree h) rest && go rest in
  go histories

(* A fault episode and one globally committed request, on one clock. *)
type episode = { onset : float }

type commit = { submitted : float; committed : float }

(* Per episode, the time from its onset to the first global commit of a
   request submitted at or after the onset. Requests already in flight at
   the onset may still commit just after it without the service having
   recovered, so they do not end an outage. [None]: nothing submitted after
   the onset committed. *)
let outages ~episodes ~commits =
  List.map
    (fun e ->
      List.fold_left
        (fun best c ->
          if c.submitted >= e.onset && c.committed >= e.onset then
            let gap = c.committed -. e.onset in
            match best with Some b when b <= gap -> best | _ -> Some gap
          else best)
        None commits)
    episodes
