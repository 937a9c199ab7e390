(** Replayable schedules: the model checker's choice vocabulary.

    A schedule is the sequence of nondeterministic choices that takes a
    deterministic initial state to the state of interest. The choice kinds
    cover every source of nondeterminism the simulated systems have:

    - [Deliver id]: hand the parked network message [id] to its destination
      ({!Qs_sim.Network.deliver_now});
    - [Step]: pop the next simulation event — timer deadlines, detector
      expectations — advancing virtual time;
    - [Fire p]: force process [p]'s open failure-detector expectation to
      time out (used by instances whose FD is emulated without timers);
    - [Amnesia p], [Equivocate p], [Churn p], [Region i]: fire one declared
      one-shot fault — an amnesia crash with rejoin, an equivocation, an
      atomic leave-and-rejoin, the loss of the [i]-th declared region.
      Instances offer each declared fault once per path, at every state
      until taken (see {!Qs_harness.Modelcheck.fault} for the effects);
      a fault choice the instance did not declare is a no-op.

    Each choice prints as one letter — [d t f a e c r], one table for both
    printing and parsing — followed by its pid or id ([t] has none). The
    textual form ("d3;t;a1;e0;c2;r0") is what [test/regressions/] pins and
    what violation reports print, so counterexamples replay from plain
    text; model-checker instances also use a fault choice's text as its
    canonical key. *)

type choice =
  | Deliver of int
  | Step
  | Fire of int
  | Amnesia of int
  | Equivocate of int
  | Churn of int
  | Region of int

type t = choice list

val choice_to_string : choice -> string
(** One choice, e.g. ["d3"], ["t"], ["a1"]. *)

val to_string : t -> string
(** Semicolon-separated, e.g. ["d3;d0;t"]; the empty schedule is [""]. *)

val of_string : string -> t
(** Inverse of {!to_string}; [Invalid_argument] on malformed input. *)

val to_json : t -> Qs_obs.Json.t

val pp : Format.formatter -> t -> unit
