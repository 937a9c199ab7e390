(** Bounded thread-safe queue with drop-oldest shedding.

    The hand-over point between the runtime's I/O threads and an endpoint's
    single driver thread, and the bounded send queue in front of each TCP
    peer connection. When full, {!push} sheds the {e oldest} entry and
    counts it — fresh protocol messages supersede stale ones, and shedding
    beats blocking a receiver thread on a slow consumer. The shed counter
    is part of the runtime's deterministic component-level bench gate. *)

type 'a t

val create : capacity:int -> 'a t
(** [Invalid_argument] if [capacity <= 0]. *)

val push : 'a t -> 'a -> bool
(** Never blocks. [false] iff the mailbox is closed (the element is
    discarded without counting as shed). *)

val pop : ?timeout:float -> 'a t -> 'a option
(** Block until an element is available ([Some]), the optional [timeout]
    in seconds elapses, or the mailbox is closed and drained ([None]).

    A push or close wakes the waiter at once, with or without [timeout]:
    a timed pop sleeps in [Unix.select] on the mailbox's own self-pipe,
    which {!push} and {!close} write one byte into while such a waiter is
    registered. The pipe is opened on the first timed sleep and closed
    with the mailbox once no timed waiter is left, so a mailbox that has
    slept holds two descriptors until {!close}. [Unix.select] limits
    them to numbers below [FD_SETSIZE] (1024 on Linux). *)

val close : _ t -> unit
(** Wake all waiters; subsequent pushes are discarded, pops drain what
    remains then return [None]. *)

val length : _ t -> int

val shed : _ t -> int
(** Entries dropped by drop-oldest shedding since creation. *)

val closed : _ t -> bool
