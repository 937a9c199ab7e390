(** Experiment E12 (extension): reacting, measured — recovery latency across
    every protocol integration.

    The paper's pitch is that selecting a quorum of well-functioning
    processes lets a system {e react} to failures instead of paying to mask
    them. This experiment quantifies the price of reacting: an active quorum
    member goes mute mid-run, a fresh request is submitted, and we measure
    the time until it commits — detection (one expectation timeout) plus
    selection (gossip) plus the protocol's own reconfiguration.

    One row per integration: XPaxos (quorum selection), PBFT selected
    (quorum selection), MinBFT selected (quorum selection, trusted
    component), chain (quorum selection, BChain-style) and star (follower
    selection). Happy-path latency is reported next to it, so the
    reaction premium is visible. *)

val run : unit -> Qs_stdx.Table.t * Verdict.t list

val xpaxos_recovery :
  ?delay:Qs_sim.Network.delay_model ->
  ?initial:Qs_sim.Stime.t ->
  ?horizon:Qs_sim.Stime.t ->
  Qs_fd.Timeout.strategy ->
  Qs_sim.Stime.t option
(** The E12 mute-and-probe script on the XPaxos + quorum-selection stack
    with a configurable link [delay] (default 1 ms), [initial] timeout
    (default 25 ms) and timeout strategy; returns the probe's commit
    latency, [None] if it never committed within [horizon] (default 20 s).

    This is the strategy-ablation hook: with links slower than the initial
    timeout, [Fixed] false-suspects forever and never recovers, while
    [Exponential] and [Additive] adapt past the real delay and do. *)
