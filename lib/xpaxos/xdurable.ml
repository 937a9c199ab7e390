module QS = Qs_core.Quorum_select
module Timeout = Qs_fd.Timeout
module Store = Qs_recovery.Store
module Codec = Qs_recovery.Codec
module Rejoin = Qs_recovery.Rejoin

(* Durable-state codecs (Codec framing on top of the primitive W/R pair).
   Log entries carry their original leader signatures, so import re-runs
   the provenance check. Factored out of Xcluster so the real-transport
   runtime node and the simulated cluster persist, collect and adopt
   byte-identical state. *)

let write_entries w entries =
  Codec.W.int w (List.length entries);
  List.iter
    (fun (e : Xmsg.entry) ->
      Codec.W.int w e.Xmsg.eview;
      Codec.W.int w e.Xmsg.eslot;
      Codec.W.int w e.Xmsg.erequest.Xmsg.client;
      Codec.W.int w e.Xmsg.erequest.Xmsg.rid;
      Codec.W.str w e.Xmsg.erequest.Xmsg.op;
      Codec.W.bool w e.Xmsg.ecommitted;
      Codec.W.str w e.Xmsg.epsig)
    entries

(* Every entry takes at least 7 bytes (five varints, two length
   prefixes), so a count above [payload_len / 7] cannot be honest — a bound
   from the input itself, where a fixed cap would reject a long log. *)
let read_entries r ~payload_len =
  let count = Codec.R.int r in
  if count > payload_len / 7 then raise (Codec.Corrupt "xlg: bad count");
  let entries = ref [] in
  for _ = 1 to count do
    let eview = Codec.R.int r in
    let eslot = Codec.R.int r in
    let client = Codec.R.int r in
    let rid = Codec.R.int r in
    let op = Codec.R.str r in
    let ecommitted = Codec.R.bool r in
    let epsig = Codec.R.str r in
    entries :=
      { Xmsg.eview; eslot; erequest = { Xmsg.client; rid; op }; ecommitted; epsig }
      :: !entries
  done;
  List.rev !entries

(* Decode a [tag] frame of version 1 whose payload is a header (read by
   [header]) followed by an entry list and nothing else. *)
let decode_framed ~tag header s =
  let version, payload = Codec.unframe ~tag s in
  if version <> 1 then raise (Codec.Corrupt (tag ^ ": unknown version"));
  let r = Codec.R.of_string payload in
  let h = header r in
  let entries = read_entries r ~payload_len:(String.length payload) in
  if not (Codec.R.eof r) then raise (Codec.Corrupt (tag ^ ": trailing bytes"));
  (h, entries)

let encode_entries entries =
  let w = Codec.W.create () in
  write_entries w entries;
  Codec.frame ~tag:"xlg" ~version:1 (Codec.W.contents w)

let decode_entries s = snd (decode_framed ~tag:"xlg" ignore s)

let empty_matrix_payload n = Codec.encode_matrix (Qs_core.Suspicion_matrix.create n)

(* ------------------------------------------------------------------ *)
(* The durable layout. A base snapshot under [log] holds every committed
   entry; deltas under [log.1], [log.2], ... hold the current form of the
   committed entries that changed since the previous write. Both carry the
   base's stamp — the writing log's identity and its version when the base
   was written — which no other base shares, so recovery applies exactly
   the deltas written on top of the base it read, and stops at the first
   missing or foreign one. Everything else is one small record, [state]:
   the view, the adapted timeouts, the selector's epoch and matrix, and
   the log's position in this store — the base's stamp, the log version
   written, the delta count and the payload bytes of base and deltas. *)

type stamp = { writer : string; base_version : int }

type position = {
  stamp : stamp;
  version : int;
  deltas : int;
  base_bytes : int;
  delta_bytes : int;
}

type state = {
  view : int;
  pos : position;
  timeouts : Qs_sim.Stime.t array;
  selector : (int * int array array) option;  (** epoch, matrix rows *)
}

let state_key = "state"

let log_key = "log"

let delta_key i = "log." ^ string_of_int i

(* Fixed width, so the bytes written do not depend on how many logs the
   process created before this one. *)
let writer_of_id id =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int id);
  Bytes.to_string b

let write_stamp w st =
  Codec.W.str w st.writer;
  Codec.W.int w st.base_version

let read_stamp r =
  let writer = Codec.R.str r in
  let base_version = Codec.R.int r in
  { writer; base_version }

let log_payload st entries =
  let w = Codec.W.create () in
  write_stamp w st;
  write_entries w entries;
  Codec.W.contents w

let encode_state st =
  let w = Codec.W.create () in
  let ints a =
    Codec.W.int w (Array.length a);
    Array.iter (Codec.W.int w) a
  in
  Codec.W.int w st.view;
  write_stamp w st.pos.stamp;
  List.iter (Codec.W.int w)
    [ st.pos.version; st.pos.deltas; st.pos.base_bytes; st.pos.delta_bytes ];
  ints st.timeouts;
  (match st.selector with
   | None -> Codec.W.bool w false
   | Some (epoch, rows) ->
     Codec.W.bool w true;
     Codec.W.int w epoch;
     Codec.W.int w (Array.length rows);
     Array.iter ints rows);
  Codec.frame ~tag:"xst" ~version:1 (Codec.W.contents w)

let decode_state s =
  let version, payload = Codec.unframe ~tag:"xst" s in
  if version <> 1 then raise (Codec.Corrupt "xst: unknown version");
  let r = Codec.R.of_string payload in
  (* Every count is bounded by the payload: each item takes a byte. *)
  let ints () =
    let k = Codec.R.int r in
    if k > String.length payload then raise (Codec.Corrupt "xst: bad count");
    Array.init k (fun _ -> Codec.R.int r)
  in
  let view = Codec.R.int r in
  let stamp = read_stamp r in
  let version = Codec.R.int r in
  let deltas = Codec.R.int r in
  let base_bytes = Codec.R.int r in
  let delta_bytes = Codec.R.int r in
  let timeouts = ints () in
  let selector =
    if Codec.R.bool r then begin
      let epoch = Codec.R.int r in
      let n = Codec.R.int r in
      if n > String.length payload then raise (Codec.Corrupt "xst: bad count");
      Some (epoch, Array.init n (fun _ -> ints ()))
    end
    else None
  in
  if not (Codec.R.eof r) then raise (Codec.Corrupt "xst: trailing bytes");
  { view; pos = { stamp; version; deltas; base_bytes; delta_bytes }; timeouts; selector }

let write_base log store =
  let stamp = { writer = writer_of_id (Xlog.id log); base_version = Xlog.version log } in
  let base = log_payload stamp (Xlog.committed_entries log) in
  Store.put store log_key (Codec.frame ~tag:"xlb" ~version:1 base);
  {
    stamp;
    version = stamp.base_version;
    deltas = 0;
    base_bytes = String.length base;
    delta_bytes = 0;
  }

(* Write what changed since [prior], this store's log position, and return
   the new position. A full base when the store was last written by
   anything else (a fresh store, another log, this log before an amnesia
   clear) or the journal no longer reaches back that far. Compaction: once
   the base's deltas add up to an eighth of the base, the next change
   writes a new base instead, so the store holds at most about 9/8 of one
   snapshot, and the base writes cost at most eight times the delta bytes
   between them. Sizes are of payloads, so the rule is decided before a
   checksum is computed. *)
let persist_log log store prior =
  let since =
    match prior with
    | Some pos when pos.stamp.writer = writer_of_id (Xlog.id log) ->
      Option.map (fun es -> (pos, es)) (Xlog.changed_since log pos.version)
    | _ -> None
  in
  match since with
  | None -> write_base log store
  | Some (pos, []) -> pos
  | Some (pos, changed) ->
    let delta = log_payload pos.stamp changed in
    let delta_bytes = pos.delta_bytes + String.length delta in
    if 8 * delta_bytes >= pos.base_bytes then write_base log store
    else begin
      let deltas = pos.deltas + 1 in
      Store.put store (delta_key deltas) (Codec.frame ~tag:"xld" ~version:1 delta);
      { pos with version = Xlog.version log; deltas; delta_bytes }
    end

(* The committed entries a recovery reads: the base, then its deltas in
   order, a later form of a slot replacing an earlier one. A corrupt base
   reads as an empty log; a corrupt delta ends the chain (the base and the
   deltas before it are an earlier fsync point's log). *)
let durable_log store =
  match Store.durable_get store log_key with
  | None -> []
  | Some s -> (
    match decode_framed ~tag:"xlb" read_stamp s with
    | exception Codec.Corrupt _ -> []
    | stamp, base ->
      let slots = Hashtbl.create 64 in
      let add (e : Xmsg.entry) = Hashtbl.replace slots e.Xmsg.eslot e in
      List.iter add base;
      let rec apply i =
        match Store.durable_get store (delta_key i) with
        | None -> ()
        | Some s -> (
          match decode_framed ~tag:"xld" read_stamp s with
          | exception Codec.Corrupt _ -> ()
          | st, changed ->
            if st = stamp then begin
              List.iter add changed;
              apply (i + 1)
            end)
      in
      apply 1;
      List.sort
        (fun (a : Xmsg.entry) b -> compare a.Xmsg.eslot b.Xmsg.eslot)
        (Hashtbl.fold (fun _ e acc -> e :: acc) slots []))

(* A decode failure on durable state means the write never made it past an
   fsync point in recognisable shape — recover as if it were absent (the
   rejoin protocol supplies the rest). *)
let read_state get store =
  match get store state_key with
  | None -> None
  | Some s -> ( try Some (decode_state s) with Codec.Corrupt _ -> None)

(* Persist a replica's durable state into its store. Executing a request is
   the durability point (a real SMR fsyncs its log before answering), so the
   batch ends with an explicit fsync; an [fsync_every] store merely adds
   finer-grained points within the batch. The state record is skipped when
   it reads the same. *)
let persist r store =
  let prior = Option.map (fun st -> st.pos) (read_state Store.get store) in
  let pos = persist_log (Replica.log r) store prior in
  let selector =
    Option.map
      (fun qsel -> (QS.epoch qsel, Qs_core.Suspicion_matrix.to_rows (QS.matrix qsel)))
      (Replica.quorum_selector r)
  in
  let timeouts = Timeout.export (Replica.timeouts r) in
  let state = encode_state { view = Replica.view r; pos; timeouts; selector } in
  if Store.get store state_key <> Some state then Store.put store state_key state;
  Store.fsync store

let collect_payload ~n r =
  let matrix, epoch =
    match Replica.quorum_selector r with
    | Some qsel -> (Codec.encode_matrix (QS.matrix qsel), QS.epoch qsel)
    | None -> (empty_matrix_payload n, 1)
  in
  let w = Codec.W.create () in
  Codec.W.int w (Replica.view r);
  Codec.W.str w (encode_entries (Replica.export_log_prefix r));
  let extra = Codec.frame ~tag:"xsu" ~version:1 (Codec.W.contents w) in
  { Rejoin.matrix; epoch; extra }

let adopt_payload r ~matrix ~epoch ~extra =
  (* Log and view first: absorb re-evaluates the selection and may itself
     move the view, and catch_up_view takes the max anyway. *)
  (match Codec.unframe ~tag:"xsu" extra with
   | exception Codec.Corrupt _ -> () (* corrupt supplement: matrix merge still stands *)
   | version, payload ->
     if version = 1 then begin
       match
         let rd = Codec.R.of_string payload in
         let view = Codec.R.int rd in
         let entries = decode_entries (Codec.R.str rd) in
         if not (Codec.R.eof rd) then raise (Codec.Corrupt "xsu: trailing bytes");
         (view, entries)
       with
       | exception Codec.Corrupt _ -> ()
       | view, entries ->
         Replica.import_log_prefix r entries;
         (match Replica.quorum_selector r with
          | Some _ -> () (* quorum-selection mode moves views via the selector *)
          | None -> Replica.catch_up_view r ~view)
     end);
  match Replica.quorum_selector r with
  | Some qsel -> QS.absorb qsel ~matrix ~epoch
  | None -> ()

let amnesia ~n r store =
  match store with
  | None ->
    (* No durability attached: the crash loses everything. *)
    Replica.amnesia_restart r ~view:0;
    { Rejoin.matrix = empty_matrix_payload n; epoch = 1; extra = "" }
  | Some store ->
    Store.crash store;
    let state = read_state Store.durable_get store in
    Replica.amnesia_restart r ~view:(match state with Some st -> st.view | None -> 0);
    (match state with
     | Some st -> (
       try Timeout.import (Replica.timeouts r) st.timeouts with Invalid_argument _ -> ())
     | None -> ());
    Replica.import_log_prefix r (durable_log store);
    let matrix, epoch =
      match Option.bind state (fun st -> st.selector) with
      | Some (epoch, rows) when epoch >= 1 -> (
        match Qs_core.Suspicion_matrix.of_rows rows with
        | m -> (Codec.encode_matrix m, epoch)
        | exception Invalid_argument _ -> (empty_matrix_payload n, 1))
      | _ -> (empty_matrix_payload n, 1)
    in
    { Rejoin.matrix; epoch; extra = "" }
