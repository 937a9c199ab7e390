module Graph = Qs_graph.Graph
module Indep = Qs_graph.Indep
module Metrics = Qs_obs.Metrics
module S = Selector_state

type config = S.config = { n : int; f : int }

let q = S.q

(* Test-only mutation hook: when set, updateQuorum looks for an independent
   set one vertex short of q, issuing undersized quorums. The model checker's
   seeded-bug smoke test flips this to prove the |Q| = n - f property can
   actually fail and be caught, counterexample-shrunk and pinned. Never set
   outside tests. *)
let test_buggy_quorum_size = ref false

let validate_config = S.validate_config

type t = {
  s : Pid.t list S.t;
  send : Msg.t -> unit;
  on_quorum : Pid.t list -> unit;
  on_epoch : int -> unit;
  mutable last_quorum : Pid.t list;
  m_policy_fallbacks : Metrics.counter;
  g_epoch : Metrics.gauge;
}

let default_quorum config = List.init (q config) (fun i -> i)

let create config ~me ~auth ~send ~on_quorum ?(on_epoch = fun _ -> ()) () =
  let s = S.create ~who:"Quorum_select" ~prefix:"qs" config ~me ~auth in
  let labels = [ ("p", string_of_int me) ] in
  (* The Theorem-3 proven bound and the conjectured maximum (Section VI-B),
     published so a snapshot carries the limits next to the live counts. *)
  let flabel = [ ("f", string_of_int config.f) ] in
  Metrics.set_g ~labels:flabel "qs_bound_theorem3"
    (float_of_int (config.f * (config.f + 1)));
  Metrics.set_g ~labels:flabel "qs_bound_conjecture"
    (float_of_int ((config.f + 2) * (config.f + 1) / 2));
  {
    s;
    send;
    on_quorum;
    on_epoch;
    last_quorum = default_quorum config;
    m_policy_fallbacks = Metrics.counter ~labels "qs_policy_fallback_total";
    g_epoch = Metrics.gauge ~labels "qs_epoch";
  }

let me t = t.s.me

(* updateSuspicions (Algorithm 1, lines 11-15): stamp current suspicions with
   the current epoch in our own row and broadcast it, including to self.
   Returns whether the broadcast row differs from the locally stored one
   (i.e. whether a self-update will eventually arrive and re-trigger
   updateQuorum). *)
let update_suspicions t suspects =
  let row, changed = S.stamp t.s suspects in
  t.send (Msg.seal t.s.auth { Msg.owner = t.s.me; row });
  changed

let handle_suspected t s = ignore (update_suspicions t s)

(* Proven-guilty processes leave every future quorum without consuming
   suspicion aging: rather than poisoning the (epoch-aged, CRDT-merged)
   matrix, exclusion covers each convicted vertex with a star of edges at
   selection time, so no independent set of size >= 2 can contain it. *)
let star_exclusions t g =
  List.iter
    (fun e ->
      for v = 0 to t.s.config.n - 1 do
        if v <> e then Graph.add_edge g e v
      done)
    (S.applied_exclusions t.s);
  g

let selection_graph t =
  let g = Suspicion_matrix.suspect_graph t.s.matrix ~epoch:t.s.epoch in
  match S.applied_exclusions t.s with [] -> g | _ -> star_exclusions t (Graph.copy g)

(* The aging endpoint of [selection_graph]: what epoch advances converge
   to — every suspicion edge aged out, only the conviction stars left.
   A policy that cannot select even here will never be unblocked by
   aging, so the selector must not keep bumping the epoch for it. *)
let exclusion_graph t = star_exclusions t (Graph.create t.s.config.n)

let epoch_advanced t epoch =
  Metrics.set t.g_epoch (float_of_int epoch);
  t.on_epoch epoch

(* updateQuorum (lines 25-34). One deviation from the listing: when the epoch
   bump leaves our own row unchanged (current suspicions were already stamped
   or empty), the self-addressed UPDATE carries no new information, so no
   handler would ever re-evaluate the quorum at the new epoch; we therefore
   continue evaluating locally. Progress is guaranteed because each such
   iteration raises the epoch and strictly shrinks the suspect graph. *)
let rec update_quorum t =
  let s = t.s in
  if s.dormant then () else begin
  Suspect_view.sync s.view ~epoch:s.epoch;
  let target = q s.config - if !test_buggy_quorum_size then 1 else 0 in
  let result =
    match s.policy with
    | Selection_policy.Lex_first -> (
      (* The incremental view models the exclusion-free selection graph; the
         star-edge construction for convictions stays on the explicit path
         (convictions are rare — at most f per run). *)
      match S.applied_exclusions s with
      | [] -> Suspect_view.lex_first s.view target
      | _ :: _ -> Indep.lex_first_independent_set (selection_graph t) target)
    | policy -> (
      let graph = selection_graph t in
      let weight = S.suspicion_weights s in
      match
        Selection_policy.select policy ~graph ~q:target ~weight ~cepoch:s.cepoch
          ~epoch:s.epoch
      with
      | Some _ as r -> r
      | None
        when Selection_policy.diversity_feasible policy ~graph:(exclusion_graph t)
               ~q:target ->
        (* Exact infeasibility that aging can cure (for the lottery this is
           plain lex-first infeasibility): fall through to the epoch bump. *)
        None
      | None ->
        (* The caps are unsatisfiable even at the aging endpoint (convictions
           crowded a label out). Epoch bumps would diverge, so the policy
           degrades to the pinned default for this selection — counted, so
           campaigns can see a policy under conviction pressure. *)
        Metrics.inc t.m_policy_fallbacks;
        Indep.lex_first_independent_set graph target)
  in
  match result with
  | None ->
    (* Suspicions in the current epoch are inconsistent: age them out. *)
    S.enter_epoch s (s.epoch + 1);
    epoch_advanced t s.epoch;
    if not (update_suspicions t s.suspecting) then update_quorum t
  | Some quorum ->
    if quorum <> t.last_quorum then begin
      t.last_quorum <- quorum;
      S.issue s quorum quorum;
      Logs.debug ~src:Qs_stdx.Debug.quorum (fun m ->
          m "p%d QUORUM %s (epoch %d)" (s.me + 1) (Pid.set_to_string quorum) s.epoch);
      t.on_quorum quorum
    end
  end

let handle_update t msg =
  let { Msg.owner; row } = msg.Msg.update in
  if not (Msg.verify t.s.auth msg) then S.reject t.s
  else
    match S.merge_row t.s ~forced_by_exclusions:false ~owner row with
    | S.Dropped -> ()
    | S.Merged { reselect } ->
      t.send msg; (* forward, so every correct process sees every suspicion *)
      if reselect then update_quorum t

(* Re-run updateQuorum after out-of-band matrix changes (the delta-gossip
   layer merges cells directly). Dormancy is respected: unlike [absorb], a
   partial delta is not evidence of a full peer state, so it must never wake
   a wiped process. *)
let reevaluate t = update_quorum t

let epoch t = t.s.epoch

let last_quorum t = t.last_quorum

let quorums_issued t = List.length t.s.history

let quorum_history t = List.rev t.s.history

let epochs_entered t = t.s.epochs_entered

let max_issued_per_epoch t = t.s.max_issued_in_epoch

let issued_in_epoch t = t.s.issued_in_epoch

let matrix t = t.s.matrix

let suspecting t = t.s.suspecting

let rejected_updates t = t.s.rejected

let suspect_graph t = Suspicion_matrix.suspect_graph t.s.matrix ~epoch:t.s.epoch

(* Convictions always re-select: the star edges may invalidate the standing
   quorum right away. *)
let exclude t p = if S.exclude t.s p then update_quorum t

let excluded t = List.sort compare t.s.excluded

let policy t = t.s.policy

(* Installing re-runs the selection: the standing quorum may change shape
   immediately. *)
let set_policy t p =
  S.set_policy t.s p;
  if not t.s.dormant then update_quorum t

let cepoch t = t.s.cepoch

(* The standing quorum resets to the new config's default — a
   reconfiguration is a quorum change, and all correct processes apply it
   deterministically. *)
let reconfigure t config' ~me ~cepoch ~of_new =
  S.reconfigure t.s config' ~me ~cepoch ~of_new ~carry:(fun _ ->
      t.last_quorum <- default_quorum config');
  if not t.s.dormant then update_quorum t

let dormant t = t.s.dormant

let amnesia t =
  S.amnesia t.s;
  t.last_quorum <- default_quorum t.s.config;
  Metrics.set t.g_epoch 1.0

(* [update_quorum] only fires [on_quorum] when the quorum actually changes,
   so repeated absorbs are harmless. *)
let absorb t ~matrix ~epoch =
  S.absorb t.s ~matrix ~epoch ~on_advance:(fun () -> epoch_advanced t epoch);
  update_quorum t

(* [last_quorum] is written VERBATIM under a permutation: it is the
   lex-first independent set of the suspect graph, and lex-first is not
   permutation-covariant — its output is a function of the graph, not a
   label. The model checker only enables symmetry when every suspicion edge
   endpoint is fixed by the permutation group, so the graph (and hence the
   lex-first choice) is invariant and the verbatim quorum is exactly what
   the relabeled execution would store. [suspecting] is a set: relabeled
   and written sorted. *)
let write_key t key =
  let module K = Qs_stdx.State_key in
  S.write_key t.s key (fun key ->
      K.add_list key (K.add key) t.last_quorum;
      K.add_pids_sorted key t.s.suspecting)

type snapshot = { shared : Pid.t list S.snapshot; s_last_quorum : Pid.t list }

let snapshot t = { shared = S.snapshot t.s; s_last_quorum = t.last_quorum }

let restore t snap =
  S.restore t.s snap.shared;
  t.last_quorum <- snap.s_last_quorum
