(** Message-flow recording.

    Experiment E8 replays the paper's Figures 2 and 3 (XPaxos normal case,
    and the delayed-PREPARE variant); the recorder captures the flow so the
    bench can print it and tests can assert on it. *)

type entry = {
  at : Stime.t;
  kind : Network.trace_kind;
  src : int;
  dst : int;
  label : string;
}

type t

val create : unit -> t

val attach : t -> label:('m -> string) -> 'm Network.t -> unit
(** Install this recorder as the network's tracer. *)

val entries : t -> entry list
(** In capture order. *)

val deliveries : t -> entry list
(** Only [Delivered] entries. *)

val clear : t -> unit

val render : t -> string
(** Multi-line "time src->dst label [kind]" listing. *)
