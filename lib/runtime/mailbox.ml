(* Bounded thread-safe queue with drop-oldest shedding.

   The hand-over point between I/O threads and an endpoint's driver thread.
   Bounded because a slow consumer must exert backpressure somewhere: when
   full, the OLDEST entry is shed (and counted) rather than the newest —
   for protocol traffic the freshest message supersedes stale ones, and a
   blocking push from a receiver thread would let one slow endpoint stall
   its peers' sender threads.

   Timed waits. The stdlib's Condition has no timed wait, so a [pop
   ~timeout] sleeps in [Unix.select] on the read end of a per-mailbox
   self-pipe, and [push]/[close] write one byte into it — only while a
   timed waiter is registered, and at most one byte at a time
   ([signalled]). Invariants, all under [m]:
   - a timed waiter registers ([timed_waiters]) before releasing [m] to
     sleep, so a push between its last queue check and its [select] leaves
     the byte in the pipe and the [select] returns at once (no lost wake-up);
   - the byte is consumed under [m] by whichever waiter wakes first, unless
     the mailbox is closed: then it stays, so every waiter wakes;
   - the pipe is created on the first timed sleep and closed once the
     mailbox is closed and no timed waiter is left, so a closed mailbox
     holds no descriptor, and no thread ever touches a closed pipe fd.
   Untimed pops wait on [nonempty]. *)

type 'a t = {
  capacity : int;
  q : 'a Queue.t;
  m : Mutex.t;
  nonempty : Condition.t;
  mutable shed : int;
  mutable closed : bool;
  mutable wake : (Unix.file_descr * Unix.file_descr) option;
  mutable timed_waiters : int;
  mutable signalled : bool;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Mailbox.create: capacity must be positive";
  {
    capacity;
    q = Queue.create ();
    m = Mutex.create ();
    nonempty = Condition.create ();
    shed = 0;
    closed = false;
    wake = None;
    timed_waiters = 0;
    signalled = false;
  }

(* Wake a timed waiter, if one sleeps. The byte only shortens a sleep that
   ends at its deadline anyway, so a failed write is dropped rather than
   raised out of the lock. *)
let signal_timed t =
  match t.wake with
  | Some (_, w) when t.timed_waiters > 0 && not t.signalled -> (
    t.signalled <- true;
    try ignore (Unix.single_write_substring w "!" 0 1 : int)
    with Unix.Unix_error _ -> ())
  | _ -> ()

let release_pipe t =
  match t.wake with
  | Some (r, w) when t.closed && t.timed_waiters = 0 ->
    t.wake <- None;
    (try Unix.close r with Unix.Unix_error _ -> ());
    (try Unix.close w with Unix.Unix_error _ -> ())
  | _ -> ()

let push t x =
  Mutex.lock t.m;
  let accepted =
    if t.closed then false
    else begin
      if Queue.length t.q >= t.capacity then begin
        ignore (Queue.pop t.q);
        t.shed <- t.shed + 1
      end;
      Queue.push x t.q;
      Condition.signal t.nonempty;
      signal_timed t;
      true
    end
  in
  Mutex.unlock t.m;
  accepted

(* Sleep at most [remaining] seconds or until [signal_timed]. Called and
   returns with [m] held, also when it raises. *)
let sleep_timed t remaining =
  let r =
    match t.wake with
    | Some (r, _) -> r
    | None ->
      let ((r, w) as p) = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock r;
      Unix.set_nonblock w;
      t.wake <- Some p;
      r
  in
  t.timed_waiters <- t.timed_waiters + 1;
  Mutex.unlock t.m;
  let failed =
    match Unix.select [ r ] [] [] remaining with
    | _ -> None
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> None
    | exception e -> Some e
  in
  Mutex.lock t.m;
  t.timed_waiters <- t.timed_waiters - 1;
  if t.signalled && not t.closed then begin
    t.signalled <- false;
    try ignore (Unix.read r (Bytes.create 1) 0 1 : int)
    with Unix.Unix_error _ -> ()
  end;
  Option.iter raise failed

let pop ?timeout t =
  let deadline =
    match timeout with None -> None | Some s -> Some (Unix.gettimeofday () +. s)
  in
  let rec loop () =
    if not (Queue.is_empty t.q) then Some (Queue.pop t.q)
    else if t.closed then None
    else
      match deadline with
      | None ->
        Condition.wait t.nonempty t.m;
        loop ()
      | Some d ->
        let remaining = d -. Unix.gettimeofday () in
        if remaining <= 0.0 then None
        else begin
          sleep_timed t remaining;
          loop ()
        end
  in
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () ->
      release_pipe t;
      Mutex.unlock t.m)
    loop

let close t =
  Mutex.lock t.m;
  t.closed <- true;
  Condition.broadcast t.nonempty;
  signal_timed t;
  release_pipe t;
  Mutex.unlock t.m

let length t =
  Mutex.lock t.m;
  let n = Queue.length t.q in
  Mutex.unlock t.m;
  n

let shed t =
  Mutex.lock t.m;
  let n = t.shed in
  Mutex.unlock t.m;
  n

let closed t =
  Mutex.lock t.m;
  let c = t.closed in
  Mutex.unlock t.m;
  c
