type entry = {
  slot : int;
  mutable sp : Xmsg.signed_prepare option;
  mutable votes : Qs_core.Pid.t list;
  mutable committed : bool;
  mutable executed : bool;
}

(* Identities are process-wide unique, so a store can tell which log (and
   which incarnation of it, see [clear]) wrote it last. *)
let next_id = Atomic.make 0

type t = {
  slots : (int, entry) Hashtbl.t;
  mutable max_slot : int;
  mutable id : int;
  (* The change journal: the slots of committed entries whose persisted
     form changed, oldest first. Change [v] (counting from 0 within this
     identity) sits at [journal.(v - dropped)]. *)
  mutable journal : int array;
  mutable len : int;
  mutable dropped : int;
  mutable ncommitted : int;
}

let create () =
  {
    slots = Hashtbl.create 64;
    max_slot = -1;
    id = Atomic.fetch_and_add next_id 1;
    journal = Array.make 16 0;
    len = 0;
    dropped = 0;
    ncommitted = 0;
  }

let id t = t.id

let version t = t.dropped + t.len

(* Record a change to a committed slot. The journal keeps at most about
   twice as many changes as there are committed slots (64 at least): a
   store further behind than that is served as well by a full snapshot,
   so the oldest half is dropped. *)
let touch t slot =
  if t.len = Array.length t.journal then begin
    let cap = max 64 (2 * t.ncommitted) in
    if t.len >= cap then begin
      let keep = t.len / 2 in
      Array.blit t.journal (t.len - keep) t.journal 0 keep;
      t.dropped <- t.dropped + (t.len - keep);
      t.len <- keep
    end
    else begin
      let bigger = Array.make (2 * t.len) 0 in
      Array.blit t.journal 0 bigger 0 t.len;
      t.journal <- bigger
    end
  end;
  t.journal.(t.len) <- slot;
  t.len <- t.len + 1

let entry t slot =
  match Hashtbl.find_opt t.slots slot with
  | Some e -> e
  | None ->
    let e = { slot; sp = None; votes = []; committed = false; executed = false } in
    Hashtbl.replace t.slots slot e;
    if slot > t.max_slot then t.max_slot <- slot;
    e

let find t slot = Hashtbl.find_opt t.slots slot

let max_slot t = t.max_slot

let next_slot t = t.max_slot + 1

let record_vote e voter = if not (List.mem voter e.votes) then e.votes <- voter :: e.votes

let clear_votes e = e.votes <- []

let set_prepare t e sp =
  let same = match e.sp with Some old -> old == sp || old = sp | None -> false in
  e.sp <- Some sp;
  if e.committed && not same then touch t e.slot

let mark_committed t e =
  if not e.committed then begin
    e.committed <- true;
    t.ncommitted <- t.ncommitted + 1;
    touch t e.slot
  end

let mark_executed e = e.executed <- true

let executed_prefix t =
  let rec loop slot acc =
    match Hashtbl.find_opt t.slots slot with
    | Some ({ executed = true; sp = Some sp; _ } : entry) ->
      loop (slot + 1) (sp.Xmsg.prepare.Xmsg.request :: acc)
    | _ -> List.rev acc
  in
  loop 0 []

let committed_count t = t.ncommitted

let to_entry slot e sp =
  {
    Xmsg.eview = sp.Xmsg.prepare.Xmsg.view;
    eslot = slot;
    erequest = sp.Xmsg.prepare.Xmsg.request;
    ecommitted = e.committed;
    epsig = sp.Xmsg.psig;
  }

let by_slot = List.sort (fun a b -> compare a.Xmsg.eslot b.Xmsg.eslot)

let to_entries t =
  by_slot
    (Hashtbl.fold
       (fun slot e acc ->
         match e.sp with None -> acc | Some sp -> to_entry slot e sp :: acc)
       t.slots [])

let committed_entries t =
  by_slot
    (Hashtbl.fold
       (fun slot e acc ->
         match e.sp with Some sp when e.committed -> to_entry slot e sp :: acc | _ -> acc)
       t.slots [])

let changed_since t v =
  if v < t.dropped || v > version t then None
  else begin
    let seen = Hashtbl.create 8 in
    let acc = ref [] in
    for i = v - t.dropped to t.len - 1 do
      let slot = t.journal.(i) in
      if not (Hashtbl.mem seen slot) then begin
        Hashtbl.replace seen slot ();
        match Hashtbl.find_opt t.slots slot with
        | Some ({ committed = true; sp = Some sp; _ } as e) ->
          acc := to_entry slot e sp :: !acc
        | _ -> ()
      end
    done;
    Some (by_slot !acc)
  end

let clear t =
  Hashtbl.reset t.slots;
  t.max_slot <- -1;
  t.id <- Atomic.fetch_and_add next_id 1;
  t.len <- 0;
  t.dropped <- 0;
  t.ncommitted <- 0

let adopt t entry_msg ~view:_ ~sp =
  let e = entry t entry_msg.Xmsg.eslot in
  set_prepare t e sp;
  clear_votes e;
  if entry_msg.Xmsg.ecommitted then mark_committed t e
