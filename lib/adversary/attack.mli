(** Named fault scenarios for XPaxos experiments.

    These map the paper's failure classification (Section II) onto concrete
    cluster manipulations:
    - commission: [Equivocate];
    - omission on individual links: [Omit_links];
    - repeated omission / mute processes: [Mute_replicas];
    - timing failures: [Delay_links];
    - increasing timing failures: [Ramp_delay] (the delay grows without
      bound, so no fixed timeout ever suffices — only adaptive ones keep
      accuracy).

    All network-expressible attacks compile to
    {!Qs_faults.Fault} schedules and are installed through
    {!Qs_faults.Injector} — the same vocabulary the chaos campaigns and
    tests use — so they stack with any other injected faults. [Equivocate]
    is a commission failure inside the replica and stays a replica-level
    hook. *)

type t =
  | Mute_replicas of int list
  | Omit_links of (int * int) list  (** (src, dst) pairs *)
  | Delay_links of ((int * int) * Qs_sim.Stime.t) list
  | Equivocate of { leader : int; victim : int }
  | Ramp_delay of {
      src : int;
      dst : int;
      step : Qs_sim.Stime.t;
      every : Qs_sim.Stime.t;
    }  (** delay grows by [step] every [every] ticks *)

val apply : Qs_xpaxos.Xcluster.t -> t -> unit
(** Install on the cluster: the attack's fault schedule through
    {!Qs_faults.Injector} (muting via [set_fault]), plus the replica-level
    equivocation hook. [Ramp_delay] unrolls one accumulating [Delay] phase
    per step over 60 s of virtual time. Call before the simulation runs past
    the attack's start times. *)

val describe : t -> string
