module Auth = Qs_crypto.Auth
module Msg = Qs_core.Msg
module Pid = Qs_core.Pid
module Journal = Qs_obs.Journal
module Metrics = Qs_obs.Metrics

type proof = { culprit : Pid.t; first : Msg.t; second : Msg.t }

let incomparable a b =
  if Array.length a <> Array.length b then true
  else begin
    let lt = ref false and gt = ref false in
    Array.iteri
      (fun i v ->
        if v < b.(i) then lt := true;
        if v > b.(i) then gt := true)
      a;
    !lt && !gt
  end

let check_proof auth p =
  p.first.Msg.update.Msg.owner = p.culprit
  && p.second.Msg.update.Msg.owner = p.culprit
  && Msg.verify auth p.first
  && Msg.verify auth p.second
  && incomparable p.first.Msg.update.Msg.row p.second.Msg.update.Msg.row

type t = {
  auth : Auth.t;
  me : int;
  n : int;
  retained : Msg.t option array; (* per owner: the pointwise-max frame seen *)
  excluded : bool array;
  quarantine : bool array;
  mutable admitted : proof list; (* first-admitted first *)
  mutable forged : int;
  mutable on_exclude : Pid.t -> unit;
  m_proofs : Metrics.counter;
  m_forgeries : Metrics.counter;
  m_excluded : Metrics.counter;
}

let create ~auth ~me ~n =
  {
    auth;
    me;
    n;
    retained = Array.make n None;
    excluded = Array.make n false;
    quarantine = Array.make n false;
    admitted = [];
    forged = 0;
    on_exclude = ignore;
    m_proofs = Metrics.counter "evidence_proofs_total";
    m_forgeries = Metrics.counter "evidence_forgeries_total";
    m_excluded = Metrics.counter "evidence_excluded_total";
  }

let set_on_exclude t f = t.on_exclude <- f

let exclude t p =
  if not t.excluded.(p) then begin
    t.excluded.(p) <- true;
    Metrics.inc t.m_excluded;
    t.on_exclude p
  end

type verdict = Ok | Forged | Proof of proof

(* Dominance order on retained frames: a correct owner only ever grows its
   row, so the newest frame dominates and is the only one worth keeping.
   Keeping a single maximal frame makes detection best-effort (a variant
   absorbed between two comparable frames can slip by) but every proof it
   does produce is sound — which is the side exclusion rides on. *)
let record_frame t frame =
  let owner = frame.Msg.update.Msg.owner in
  match t.retained.(owner) with
  | None ->
    t.retained.(owner) <- Some frame;
    Ok
  | Some kept ->
    let old_row = kept.Msg.update.Msg.row and new_row = frame.Msg.update.Msg.row in
    if incomparable old_row new_row then begin
      let p = { culprit = owner; first = kept; second = frame } in
      t.admitted <- t.admitted @ [ p ];
      Metrics.inc t.m_proofs;
      if Journal.live () then
        Journal.record (Journal.Proof_found { by = t.me; culprit = owner });
      exclude t owner;
      Proof p
    end
    else begin
      (* Comparable: keep the larger; the smaller is stale (or a replay). *)
      let grows = Array.exists Fun.id (Array.mapi (fun i v -> v > old_row.(i)) new_row) in
      if grows then t.retained.(owner) <- Some frame;
      Ok
    end

let observe t ~src frame =
  if not (Msg.verify t.auth frame) then begin
    t.forged <- t.forged + 1;
    Metrics.inc t.m_forgeries;
    t.quarantine.(src) <- true;
    if Journal.live () then
      Journal.record
        (Journal.Forgery_rejected
           { by = t.me; channel = src; claimed = frame.Msg.update.Msg.owner });
    Forged
  end
  else if t.excluded.(frame.Msg.update.Msg.owner) then Ok (* already convicted *)
  else record_frame t frame

let known t p =
  List.exists
    (fun q ->
      q.culprit = p.culprit
      (* Same culprit is enough: one conviction is permanent, extra proofs
         against the same process add nothing. *))
    t.admitted

let admit t p =
  if known t p then false
  else if not (check_proof t.auth p) then false
  else begin
    t.admitted <- t.admitted @ [ p ];
    Metrics.inc t.m_proofs;
    if Journal.live () then
      Journal.record (Journal.Proof_admitted { by = t.me; culprit = p.culprit });
    exclude t p.culprit;
    true
  end

let excluded t =
  List.filter (fun p -> t.excluded.(p)) (List.init t.n Fun.id)

let is_excluded t p = p >= 0 && p < t.n && t.excluded.(p)

let quarantined t = List.filter (fun p -> t.quarantine.(p)) (List.init t.n Fun.id)

let proofs t = t.admitted

let forgeries t = t.forged
