type t = {
  durable : (string, string) Hashtbl.t;
  pending : (string, string) Hashtbl.t;
  fsync_every : int option;
  mutable unflushed : int;
  mutable puts : int;
  mutable bytes : int;
  mutable fsyncs : int;
  mutable crashes : int;
  mutable lost : int;
}

let create ?fsync_every () =
  (match fsync_every with
  | Some k when k <= 0 -> invalid_arg "Store.create: fsync_every must be positive"
  | _ -> ());
  {
    durable = Hashtbl.create 16;
    pending = Hashtbl.create 16;
    fsync_every;
    unflushed = 0;
    puts = 0;
    bytes = 0;
    fsyncs = 0;
    crashes = 0;
    lost = 0;
  }

let fsync t =
  Hashtbl.iter (fun k v -> Hashtbl.replace t.durable k v) t.pending;
  Hashtbl.reset t.pending;
  t.unflushed <- 0;
  t.fsyncs <- t.fsyncs + 1

let put t key value =
  Hashtbl.replace t.pending key value;
  t.puts <- t.puts + 1;
  t.bytes <- t.bytes + String.length key + String.length value;
  t.unflushed <- t.unflushed + 1;
  match t.fsync_every with
  | Some k when t.unflushed >= k -> fsync t
  | _ -> ()

let get t key =
  match Hashtbl.find_opt t.pending key with
  | Some v -> Some v
  | None -> Hashtbl.find_opt t.durable key

let durable_get t key = Hashtbl.find_opt t.durable key

let crash t =
  t.lost <- t.lost + Hashtbl.length t.pending;
  Hashtbl.reset t.pending;
  t.unflushed <- 0;
  t.crashes <- t.crashes + 1

let pending_writes t = Hashtbl.length t.pending

let puts t = t.puts

let bytes_written t = t.bytes

let fsyncs t = t.fsyncs

let crashes t = t.crashes

let lost_writes t = t.lost

let bindings t =
  let keys = Hashtbl.create 16 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) t.durable;
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) t.pending;
  Hashtbl.fold (fun k () acc -> k :: acc) keys []
  |> List.sort compare
  |> List.filter_map (fun k -> Option.map (fun v -> (k, v)) (get t k))

type snapshot = {
  s_durable : (string * string) list;
  s_pending : (string * string) list;
  s_unflushed : int;
  s_puts : int;
  s_bytes : int;
  s_fsyncs : int;
  s_crashes : int;
  s_lost : int;
}

let snapshot t =
  let dump h = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] in
  {
    s_durable = dump t.durable;
    s_pending = dump t.pending;
    s_unflushed = t.unflushed;
    s_puts = t.puts;
    s_bytes = t.bytes;
    s_fsyncs = t.fsyncs;
    s_crashes = t.crashes;
    s_lost = t.lost;
  }

let restore t s =
  Hashtbl.reset t.durable;
  Hashtbl.reset t.pending;
  List.iter (fun (k, v) -> Hashtbl.replace t.durable k v) s.s_durable;
  List.iter (fun (k, v) -> Hashtbl.replace t.pending k v) s.s_pending;
  t.unflushed <- s.s_unflushed;
  t.puts <- s.s_puts;
  t.bytes <- s.s_bytes;
  t.fsyncs <- s.s_fsyncs;
  t.crashes <- s.s_crashes;
  t.lost <- s.s_lost
