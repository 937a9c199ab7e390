module Graph = Qs_graph.Graph
module Line = Qs_graph.Line_subgraph
module Pid = Qs_core.Pid
module Msg = Qs_core.Msg
module Suspicion_matrix = Qs_core.Suspicion_matrix
module Suspect_view = Qs_core.Suspect_view
module Quorum_select = Qs_core.Quorum_select
module S = Qs_core.Selector_state
module Metrics = Qs_obs.Metrics

type t = {
  s : (Pid.t * Pid.t list) S.t;
  send : Fmsg.t -> unit;
  on_quorum : leader:Pid.t -> Pid.t list -> unit;
  fd_expect : leader:Pid.t -> epoch:int -> unit;
  fd_cancel : unit -> unit;
  fd_detected : Pid.t -> unit;
  mutable leader : Pid.t;
  mutable stable : bool;
  mutable qlast : Pid.t list;
  mutable detections : Pid.t list;
  m_detections : Metrics.counter;
}

let q_of t = Quorum_select.q t.s.config

(* The deterministic leader rule with exclusions: the minimum degree-0
   vertex of the line subgraph that is not proven guilty. With no
   exclusions this is exactly [Line.leader_of] (Lemma 5's unique leader);
   with them it is still a deterministic function of (matrix, epoch,
   admitted proofs), which is all agreement needs. *)
let leader_with ~n ~excluded l =
  let rec first v =
    if v >= n then None
    else if Graph.degree l v = 0 && not (List.mem v excluded) then Some v
    else first (v + 1)
  in
  first 0

(* The epoch-bump default (line 12's {p1..pq}) skips convicted processes:
   the first q eligible ids. *)
let default_quorum_of t =
  let ex = S.applied_exclusions t.s in
  let rec take k v =
    if k = 0 then []
    else if v >= t.s.config.n then [] (* unreachable: |ex| <= f leaves >= q eligible *)
    else if List.mem v ex then take k (v + 1)
    else v :: take (k - 1) (v + 1)
  in
  take (q_of t) 0

(* Install the default leader and quorum, cancelling any armed
   expectation: what an epoch bump, a rejoin or a reconfiguration does. *)
let to_default t =
  t.fd_cancel ();
  t.qlast <- default_quorum_of t;
  t.leader <- (match t.qlast with v :: _ -> v | [] -> 0);
  t.stable <- true

let require_3f who (config : Quorum_select.config) =
  Quorum_select.validate_config config;
  if config.n <= 3 * config.f then invalid_arg (who ^ ": requires n > 3f")

let create config ~me ~auth ~send ~on_quorum ?(fd_expect = fun ~leader:_ ~epoch:_ -> ())
    ?(fd_cancel = fun () -> ()) ?(fd_detected = fun _ -> ()) () =
  require_3f "Follower_select" config;
  let s = S.create ~who:"Follower_select" ~prefix:"fs" config ~me ~auth in
  (* Theorem 9's per-epoch bound for Follower Selection, published next to
     the live counts (mirrors [qs_bound_theorem3] in Quorum_select). *)
  Metrics.set_g
    ~labels:[ ("f", string_of_int config.f) ]
    "fs_bound_theorem9"
    (float_of_int ((3 * config.f) + 1));
  {
    s;
    send;
    on_quorum;
    fd_expect;
    fd_cancel;
    fd_detected;
    leader = 0;
    stable = true;
    qlast = List.init (Quorum_select.q config) (fun i -> i);
    detections = [];
    m_detections =
      Metrics.counter ~labels:[ ("p", string_of_int me) ] "fs_detections_total";
  }

let me t = t.s.me

(* updateSuspicions, as in Algorithm 1 (Selector_state.stamp), then seal. *)
let update_suspicions t suspects =
  let row, changed = S.stamp t.s suspects in
  t.send (Fmsg.seal t.s.auth (Fmsg.Update { Msg.owner = t.s.me; row }));
  changed

let select_followers ?(excluded = []) ?(reorder = fun c -> c) l ~leader ~q =
  let candidates =
    reorder
      (List.filter
         (fun v -> v <> leader && not (List.mem v excluded))
         (Line.possible_followers l))
  in
  let rec take k = function
    | _ when k = 0 -> []
    | [] -> invalid_arg "Follower_select.select_followers: not enough possible followers"
    | v :: rest -> v :: take (k - 1) rest
  in
  take (q - 1) candidates

(* Policies reorder the leader's follower candidates; well-formedness
   (check d) admits any subset of possible followers, so receivers need no
   policy agreement to validate — but every correct process still installs
   the same policy so a leader handoff keeps quorum shapes consistent. *)
let policy_reorder t candidates =
  Qs_core.Selection_policy.order t.s.policy ~candidates
    ~weight:(S.suspicion_weights t.s) ~cepoch:t.s.cepoch ~epoch:t.s.epoch

let issue t ~leader quorum =
  t.qlast <- quorum;
  S.issue t.s (leader, quorum) quorum;
  t.on_quorum ~leader quorum

(* updateQuorum (Algorithm 2, lines 7-26). *)
let rec update_quorum t =
  let s = t.s in
  if s.dormant then () else begin
  Suspect_view.sync s.view ~epoch:s.epoch;
  let g = Suspect_view.graph s.view in
  if not (Suspect_view.feasible s.view (q_of t)) then begin
    (* Lines 9-16: inconsistent suspicions — new epoch, default quorum. *)
    S.enter_epoch s (s.epoch + 1);
    to_default t;
    issue t ~leader:t.leader t.qlast;
    if not (update_suspicions t s.suspecting) then update_quorum t
  end
  else begin
    let l = Line.maximal g in
    let excluded = S.applied_exclusions s in
    match leader_with ~n:s.config.n ~excluded l with
    | None ->
      (* Cannot happen for n > 3f: Lemma 8 b) guarantees an uncovered vertex
         whenever an independent set of size q exists (and at most f
         exclusions leave an eligible one). *)
      assert false
    | Some new_leader ->
      if new_leader <> t.leader then begin
        t.stable <- false;
        t.leader <- new_leader;
        t.fd_cancel ();
        if new_leader <> s.me then t.fd_expect ~leader:new_leader ~epoch:s.epoch
        else begin
          let fw =
            select_followers ~excluded ~reorder:(policy_reorder t) l ~leader:s.me
              ~q:(q_of t)
          in
          t.send
            (Fmsg.seal s.auth
               (Fmsg.Followers
                  {
                    Fmsg.leader = s.me;
                    epoch = s.epoch;
                    followers = fw;
                    line = Graph.edges l;
                  }))
        end
      end
  end
  end

let handle_suspected t s = ignore (update_suspicions t s)

let well_formed ?(excluded = []) ~n ~q ~suspect_graph f =
  let fw = f.Fmsg.followers in
  let distinct = List.length (List.sort_uniq compare fw) = List.length fw in
  let in_range v = v >= 0 && v < n in
  (* a) l ∉ Fw ∧ |Fw| = q − 1 *)
  distinct
  && List.length fw = q - 1
  && List.for_all in_range fw
  && (not (List.mem f.Fmsg.leader fw))
  && in_range f.Fmsg.leader
  && List.for_all (fun (i, j) -> in_range i && in_range j && i <> j) f.Fmsg.line
  &&
  match Fmsg.line_graph ~n f with
  | exception Invalid_argument _ -> false
  | l' ->
    (* b) L' ⊆ G_i and L' is a line subgraph *)
    Line.is_line_subgraph l'
    && Graph.is_subgraph ~sub:l' ~super:suspect_graph
    (* c) l_{L'} = sender, under the receiver's admitted exclusions *)
    && leader_with ~n ~excluded l' = Some f.Fmsg.leader
    (* d) all followers are possible followers for L', none proven guilty *)
    && List.for_all
         (fun v -> Line.is_possible_follower l' v && not (List.mem v excluded))
         fw

let detect t culprit =
  t.detections <- culprit :: t.detections;
  Metrics.inc t.m_detections;
  t.fd_detected culprit

let handle_followers t msg f =
  let s = t.s in
  let j = f.Fmsg.leader in
  (* While dormant the local (leader, epoch, qlast) triple is the wiped
     default, so both the equivocation and the well-formedness checks would
     compare against state the process no longer legitimately holds. *)
  if (not s.dormant) && j = t.leader && f.Fmsg.epoch = s.epoch then begin
    Suspect_view.sync s.view ~epoch:s.epoch;
    if
      not
        (well_formed ~excluded:(S.applied_exclusions s) ~n:s.config.n ~q:(q_of t)
           ~suspect_graph:(Suspect_view.graph s.view)
           f)
    then detect t j
    else begin
      let quorum = List.sort compare (j :: f.Fmsg.followers) in
      if t.stable && quorum <> t.qlast then detect t j (* equivocation *)
      else if not t.stable then begin
        t.stable <- true;
        t.send msg; (* forward the FOLLOWERS message *)
        issue t ~leader:j quorum
      end
    end
  end

let handle_msg t msg =
  if not (Fmsg.verify t.s.auth msg) then S.reject t.s
  else
    match msg.Fmsg.payload with
    | Fmsg.Update u -> (
      (* A conviction changes the leader rule without touching the graph, so
         with exclusions standing every merge re-derives. *)
      match S.merge_row t.s ~forced_by_exclusions:true ~owner:u.Msg.owner u.Msg.row with
      | S.Dropped -> ()
      | S.Merged { reselect } ->
        t.send msg;
        if reselect then update_quorum t)
    | Fmsg.Followers f -> handle_followers t msg f

let reevaluate t = update_quorum t

let epoch t = t.s.epoch

let leader t = t.leader

let stable t = t.stable

let last_quorum t = t.qlast

let quorums_issued t = List.length t.s.history

let quorum_history t = List.rev t.s.history

let epochs_entered t = t.s.epochs_entered

let max_issued_per_epoch t = t.s.max_issued_in_epoch

let detections t = t.detections

let matrix t = t.s.matrix

let suspect_graph t = Suspicion_matrix.suspect_graph t.s.matrix ~epoch:t.s.epoch

let rejected_msgs t = t.s.rejected

(* No forced re-issue on a conviction: Algorithm 2 only changes quorums
   through leader changes and epoch bumps, and a stable leader
   re-broadcasting a shrunken FOLLOWERS message would trip its own
   receivers' equivocation check. Only a convicted current leader must be
   stepped away from now: the leader rule skips excluded vertices, so the
   re-derivation cannot pick [p] again. *)
let exclude t p =
  if
    S.exclude t.s p
    && (not t.s.dormant)
    && List.mem p (S.applied_exclusions t.s)
    && t.leader = p
  then update_quorum t

let excluded t = List.sort compare t.s.excluded

let policy t = t.s.policy

(* No forced re-issue on install either, for the same reason as [exclude]. *)
let set_policy t p = S.set_policy t.s p

let cepoch t = t.s.cepoch

(* The leader/stability machinery resets to the new config's defaults: the
   old leader may not even be a member any more. *)
let reconfigure t config' ~me ~cepoch ~of_new =
  require_3f "Follower_select.reconfigure" config';
  S.reconfigure t.s config' ~me ~cepoch ~of_new ~carry:(fun remap ->
      t.detections <- remap t.detections;
      to_default t);
  if not t.s.dormant then update_quorum t

let dormant t = t.s.dormant

let amnesia t =
  S.amnesia t.s;
  t.detections <- [];
  to_default t

(* The new-epoch path resets leader and quorum to the defaults, as
   Algorithm 2's own epoch advance does; re-deriving at the absorbed epoch
   then re-arms the expectation, and the normal FOLLOWERS exchange
   completes the rejoin. *)
let absorb t ~matrix ~epoch =
  S.absorb t.s ~matrix ~epoch ~on_advance:(fun () -> to_default t);
  update_quorum t

let write_key t key =
  let module K = Qs_stdx.State_key in
  S.write_key t.s key (fun key ->
      K.add_pid key t.leader;
      K.add_bool key t.stable;
      K.add_pids key t.qlast;
      K.add_pids key t.s.suspecting;
      K.add_pids key t.detections)

type snapshot = {
  shared : (Pid.t * Pid.t list) S.snapshot;
  s_leader : Pid.t;
  s_stable : bool;
  s_qlast : Pid.t list;
  s_detections : Pid.t list;
}

let snapshot t =
  {
    shared = S.snapshot t.s;
    s_leader = t.leader;
    s_stable = t.stable;
    s_qlast = t.qlast;
    s_detections = t.detections;
  }

let restore t snap =
  S.restore t.s snap.shared;
  t.leader <- snap.s_leader;
  t.stable <- snap.s_stable;
  t.qlast <- snap.s_qlast;
  t.detections <- snap.s_detections
