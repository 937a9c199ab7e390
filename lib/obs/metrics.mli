(** Zero-dependency metrics registry.

    Three instrument kinds — monotonic counters, gauges, and histograms
    (summarised through {!Qs_stdx.Stats}) — keyed by a metric name plus an
    optional set of [(key, value)] label pairs. Label order is irrelevant:
    [\[("p","0"); ("op","send")\]] and its permutation address the same
    series. A name is bound to one kind for the lifetime of the registry;
    using it as another kind raises [Invalid_argument].

    Instruments are cheap handles: acquire one once ({!counter}, {!gauge},
    {!histogram}) and bump it on the hot path without further lookups.
    {!reset} zeroes every registered series but keeps the handles valid, so
    a CLI run can [reset] before the workload and {!snapshot} after — the
    snapshot is deterministically ordered (by name, then labels) and renders
    to both a human-readable text block and JSON.

    A {!default} registry per domain is what the instrumented protocol
    layers (network, failure detector, quorum selection, XPaxos) write to;
    every accessor takes [?m] to target a private registry instead. The
    default is domain-local (one registry on OCaml 4.14, where there is a
    single domain): systems built inside a worker domain of the sharded
    explorer get their own registry instead of racing on a shared one. *)

type t
(** A registry. *)

type labels = (string * string) list

type counter
type gauge
type histogram

val create : unit -> t

val default : unit -> t
(** The calling domain's registry — what the instrumented protocol layers
    write to when [?m] is omitted. *)

(** {1 Instruments} *)

val counter : ?m:t -> ?labels:labels -> string -> counter
(** Register (or re-acquire) a monotonic counter. *)

val gauge : ?m:t -> ?labels:labels -> string -> gauge

val histogram : ?m:t -> ?labels:labels -> string -> histogram

val inc : ?by:int -> counter -> unit
(** Add [by] (default 1). Negative increments raise [Invalid_argument]:
    counters are monotonic. *)

val set : gauge -> float -> unit

val set_max : gauge -> float -> unit
(** Keep the running maximum: [set_max g v] is [set g (max v (value g))]. *)

val observe : histogram -> float -> unit

(** {1 One-shot conveniences} (lookup + operate; fine off the hot path) *)

val inc_c : ?m:t -> ?labels:labels -> ?by:int -> string -> unit
val set_g : ?m:t -> ?labels:labels -> string -> float -> unit
val observe_h : ?m:t -> ?labels:labels -> string -> float -> unit

(** {1 Reads} *)

val counter_value : counter -> int
val gauge_value : gauge -> float
val histogram_count : histogram -> int

val histogram_samples : histogram -> float list
(** Samples in observation order. *)

val find_counter : ?m:t -> ?labels:labels -> string -> int option
(** Value of an already-registered series; [None] if never registered.
    Never creates the series. *)

val find_gauge : ?m:t -> ?labels:labels -> string -> float option

(** {1 Snapshot and rendering} *)

val reset : ?m:t -> unit -> unit
(** Zero every series (counters to 0, gauges to 0, histograms emptied).
    Registrations and handles stay valid. *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { count : int; summary : Qs_stdx.Stats.summary option }
      (** [summary] is [None] for an empty histogram. *)

type point = { name : string; labels : labels; value : value }

val snapshot : ?m:t -> unit -> point list
(** Deterministic: sorted by name, then by (sorted) labels. *)

val render_text : point list -> string
(** One line per series: [kind name{k=v,...} value]. *)

val to_json : point list -> Json.t
(** A JSON array of objects: [{"name", "labels", "kind", ...}]. *)

val render_json : point list -> string
(** [Json.render (to_json points)] wrapped as [{"metrics": [...]}]. *)
