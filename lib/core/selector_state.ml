module Metrics = Qs_obs.Metrics
module Journal = Qs_obs.Journal

type config = { n : int; f : int }

let q c = c.n - c.f

(* Both algorithms validate through [Quorum_select.validate_config], whose
   name the messages keep. *)
let validate_config c =
  if c.f < 0 then invalid_arg "Quorum_select: f must be non-negative";
  if c.n - c.f <= c.f then invalid_arg "Quorum_select: need n - f > f (correct majority)"

type 'h t = {
  who : string;
  mutable config : config;
  mutable me : Pid.t;
  auth : Qs_crypto.Auth.t;
  mutable matrix : Suspicion_matrix.t;
  mutable view : Suspect_view.t;
  mutable cepoch : int;
  mutable epoch : int;
  mutable suspecting : Pid.t list;
  mutable history : 'h list;
  mutable epochs_entered : int;
  mutable rejected : int;
  mutable issued_in_epoch : int;
  mutable max_issued_in_epoch : int;
  mutable dormant : bool;
  mutable excluded : Pid.t list;
  mutable policy : Selection_policy.t;
  m_updates_sent : Metrics.counter;
  m_updates_merged : Metrics.counter;
  m_rejected : Metrics.counter;
  m_quorums : Metrics.counter;
  m_epochs : Metrics.counter;
  g_this_epoch : Metrics.gauge;
  g_epoch_max : Metrics.gauge;
}

(* The checks [create] and [reconfigure] share, in the order callers have
   always seen their messages. *)
let check_member who config ~me ~auth =
  validate_config config;
  if me < 0 || me >= config.n then invalid_arg (who ^ ": me out of range");
  if Qs_crypto.Auth.universe auth < config.n then
    invalid_arg (who ^ ": auth universe too small")

let create ~who ~prefix config ~me ~auth =
  check_member (who ^ ".create") config ~me ~auth;
  let labels = [ ("p", string_of_int me) ] in
  let counter name = Metrics.counter ~labels (prefix ^ name) in
  let gauge name = Metrics.gauge ~labels (prefix ^ name) in
  let matrix = Suspicion_matrix.create config.n in
  {
    who;
    config;
    me;
    auth;
    matrix;
    view = Suspect_view.create matrix ~epoch:1;
    cepoch = 0;
    epoch = 1;
    suspecting = [];
    history = [];
    epochs_entered = 0;
    rejected = 0;
    issued_in_epoch = 0;
    max_issued_in_epoch = 0;
    dormant = false;
    excluded = [];
    policy = Selection_policy.default;
    m_updates_sent = counter "_updates_sent_total";
    m_updates_merged = counter "_updates_merged_total";
    m_rejected = counter "_rejected_total";
    m_quorums = counter "_quorums_issued_total";
    m_epochs = counter "_epochs_entered_total";
    g_this_epoch = gauge "_quorums_this_epoch";
    g_epoch_max = gauge "_quorums_per_epoch_max";
  }

(* updateSuspicions (Algorithm 1, lines 11-15) up to the broadcast: the
   local matrix is only updated by the self-delivered UPDATE (line 15
   sends "to all including self"), which keeps a single code path for
   state changes and re-selection. *)
let stamp t s =
  t.suspecting <- List.sort_uniq compare (List.filter (fun j -> j <> t.me) s);
  let row = Suspicion_matrix.row t.matrix t.me in
  let changed = ref false in
  List.iter
    (fun j ->
      if row.(j) < t.epoch then begin
        row.(j) <- t.epoch;
        changed := true
      end)
    t.suspecting;
  Metrics.inc t.m_updates_sent;
  if Journal.live () then
    Journal.record (Journal.Update_sent { owner = t.me; epoch = t.epoch });
  (row, !changed)

let reject t =
  t.rejected <- t.rejected + 1;
  Metrics.inc t.m_rejected

type merge = Dropped | Merged of { reselect : bool }

let merge_row t ~forced_by_exclusions ~owner row =
  (* A row of the wrong width was sealed under a different configuration
     (in flight across a reconfiguration): its slots name other processes,
     so merging it would alias suspicions. Dropped like a bad signature. *)
  if Array.length row <> t.config.n || owner >= t.config.n then begin
    reject t;
    Dropped
  end
  else begin
    (* If the view was in sync before the merge and the merge raised no cell
       at or above the current epoch (generation unchanged), the selection
       graph is untouched: re-running the selection would re-derive the
       standing result and do nothing. Skipping it is the difference between
       O(changed cells) and a full search per stale UPDATE. *)
    let in_sync =
      (not (forced_by_exclusions && t.excluded <> []))
      && Suspect_view.in_sync t.view ~epoch:t.epoch
    in
    let gen = Suspect_view.generation t.view in
    if Suspicion_matrix.merge_row t.matrix ~owner row then begin
      Metrics.inc t.m_updates_merged;
      if Journal.live () then
        Journal.record (Journal.Update_merged { who = t.me; owner });
      Merged { reselect = not (in_sync && Suspect_view.generation t.view = gen) }
    end
    else Dropped
  end

let enter_epoch t epoch =
  t.epoch <- epoch;
  t.epochs_entered <- t.epochs_entered + 1;
  t.issued_in_epoch <- 0;
  Metrics.inc t.m_epochs;
  Metrics.set t.g_this_epoch 0.0;
  if Journal.live () then
    Journal.record (Journal.Epoch_advanced { who = t.me; epoch = t.epoch })

let issue t entry quorum =
  t.history <- entry :: t.history;
  t.issued_in_epoch <- t.issued_in_epoch + 1;
  if t.issued_in_epoch > t.max_issued_in_epoch then
    t.max_issued_in_epoch <- t.issued_in_epoch;
  Metrics.inc t.m_quorums;
  Metrics.set t.g_this_epoch (float_of_int t.issued_in_epoch);
  Metrics.set_max t.g_epoch_max (float_of_int t.issued_in_epoch);
  if Journal.live () then
    Journal.record (Journal.Quorum_issued { who = t.me; epoch = t.epoch; quorum })

let applied_exclusions t = List.filteri (fun i _ -> i < t.config.f) t.excluded

(* O(nonzero cells), not O(n²): a seeded lottery drifts away from
   historically suspected processes, and convicts rank last. *)
let suspicion_weights t =
  let n = t.config.n in
  let w = Array.make n 0 in
  Suspicion_matrix.iter_nonzero t.matrix (fun ~suspector:_ ~suspect ~epoch:_ ->
      w.(suspect) <- w.(suspect) + 1);
  List.iter (fun e -> if e >= 0 && e < n then w.(e) <- w.(e) + n) t.excluded;
  fun v -> w.(v)

(* ------------------------------------------------------------------ *)
(* Extension planes *)

let exclude t p =
  if p < 0 || p >= t.config.n then invalid_arg (t.who ^ ".exclude: out of range");
  let fresh = not (List.mem p t.excluded) in
  if fresh then t.excluded <- t.excluded @ [ p ];
  fresh

(* A policy is static configuration: every correct process installs the
   same one, so agreement still rests on deterministic selection over
   converged state. *)
let set_policy t p =
  Selection_policy.validate p ~n:t.config.n ~q:(q t.config);
  t.policy <- p

(* [of_new] maps each new slot to the old slot it inherits (< 0 for a fresh
   joiner slot); a compacting remap never mentions the removed slots, so
   their suspicions and convictions die with the config. *)
let reconfigure t config' ~me ~cepoch ~of_new ~carry =
  let who = t.who ^ ".reconfigure" in
  check_member who config' ~me ~auth:t.auth;
  if cepoch <= t.cepoch then invalid_arg (who ^ ": config epoch must advance");
  let old_n = t.config.n in
  let inv = Array.make old_n (-1) in
  for i = 0 to config'.n - 1 do
    let o = of_new i in
    if o >= old_n then invalid_arg (who ^ ": of_new out of range");
    if o >= 0 then inv.(o) <- i
  done;
  let remap_pids ps =
    List.filter_map
      (fun p -> if p >= 0 && p < old_n && inv.(p) >= 0 then Some inv.(p) else None)
      ps
  in
  let matrix' = Suspicion_matrix.remap t.matrix ~n:config'.n ~of_new in
  Suspicion_matrix.clear_watcher t.matrix;
  t.matrix <- matrix';
  t.view <- Suspect_view.create matrix' ~epoch:t.epoch;
  t.config <- config';
  t.me <- me;
  t.cepoch <- cepoch;
  t.suspecting <- List.sort_uniq compare (remap_pids t.suspecting);
  t.excluded <- remap_pids t.excluded;
  t.policy <- Selection_policy.remap t.policy ~n:config'.n ~of_new;
  carry remap_pids;
  t.history <- [];
  t.issued_in_epoch <- 0;
  Metrics.set t.g_this_epoch 0.0;
  if Journal.live () then
    Journal.record (Journal.Reconfigured { who = t.me; cepoch; n = config'.n })

let amnesia t =
  Suspicion_matrix.blit ~src:(Suspicion_matrix.create t.config.n) ~dst:t.matrix;
  t.epoch <- 1;
  t.suspecting <- [];
  t.history <- [];
  t.issued_in_epoch <- 0;
  t.max_issued_in_epoch <- 0;
  t.dormant <- true;
  Metrics.set t.g_this_epoch 0.0

(* Safe to call repeatedly: merges are idempotent and the epoch only moves
   forward. *)
let absorb t ~matrix ~epoch ~on_advance =
  ignore (Suspicion_matrix.merge t.matrix matrix);
  if epoch > t.epoch then begin
    enter_epoch t epoch;
    on_advance ()
  end;
  t.dormant <- false

(* ------------------------------------------------------------------ *)
(* Model-checker hooks *)

type 'h snapshot = {
  s_config : config;
  s_me : Pid.t;
  s_cepoch : int;
  s_matrix : Suspicion_matrix.t;
  s_epoch : int;
  s_suspecting : Pid.t list;
  s_history : 'h list;
  s_epochs_entered : int;
  s_rejected : int;
  s_issued_in_epoch : int;
  s_max_issued_in_epoch : int;
  s_dormant : bool;
  s_excluded : Pid.t list;
  s_policy : Selection_policy.t;
}

let snapshot t =
  {
    s_config = t.config;
    s_me = t.me;
    s_cepoch = t.cepoch;
    s_matrix = Suspicion_matrix.copy t.matrix;
    s_epoch = t.epoch;
    s_suspecting = t.suspecting;
    s_history = t.history;
    s_epochs_entered = t.epochs_entered;
    s_rejected = t.rejected;
    s_issued_in_epoch = t.issued_in_epoch;
    s_max_issued_in_epoch = t.max_issued_in_epoch;
    s_dormant = t.dormant;
    s_excluded = t.excluded;
    s_policy = t.policy;
  }

let restore t s =
  t.config <- s.s_config;
  t.me <- s.s_me;
  t.cepoch <- s.s_cepoch;
  (* A snapshot taken under a different configuration has a different matrix
     width: adopt a copy and rebuild the incremental view instead of
     blitting (blit requires equal sizes). *)
  if Suspicion_matrix.n t.matrix <> Suspicion_matrix.n s.s_matrix then begin
    Suspicion_matrix.clear_watcher t.matrix;
    t.matrix <- Suspicion_matrix.copy s.s_matrix;
    t.view <- Suspect_view.create t.matrix ~epoch:s.s_epoch
  end
  else Suspicion_matrix.blit ~src:s.s_matrix ~dst:t.matrix;
  t.epoch <- s.s_epoch;
  t.suspecting <- s.s_suspecting;
  t.history <- s.s_history;
  t.epochs_entered <- s.s_epochs_entered;
  t.rejected <- s.s_rejected;
  t.issued_in_epoch <- s.s_issued_in_epoch;
  t.max_issued_in_epoch <- s.s_max_issued_in_epoch;
  t.dormant <- s.s_dormant;
  t.excluded <- s.s_excluded;
  t.policy <- s.s_policy

(* The model checker's key for the shared state. The issued-in-epoch
   counters are included deliberately: two states identical up to them
   could still diverge on whether a later quorum overshoots a per-epoch
   bound, so merging them would be unsound for that check. Convictions keep
   their order (it decides which f apply); the policy is written verbatim,
   since symmetry reduction only runs under the default one. *)
let write_key t key body =
  let module K = Qs_stdx.State_key in
  K.add key t.config.n;
  K.add key t.config.f;
  K.add key t.cepoch;
  K.add key t.epoch;
  Suspicion_matrix.write_key t.matrix key;
  body key;
  K.add key t.issued_in_epoch;
  K.add key t.max_issued_in_epoch;
  K.add_bool key t.dormant;
  K.add_pids key t.excluded;
  if Selection_policy.is_default t.policy then K.add key 0
  else begin
    K.add key 1;
    K.add_string key (Selection_policy.to_string t.policy)
  end
