(** Bench-regression gate: diff a fresh [BENCH_qsel.json] against the
    committed [bench/baseline.json].

    What is gated is listed once, in the [table] in [bench_gate.ml]: one
    entry per section of the bench summary, each with the fields that
    match its rows and its [(label, field, rule)] checks. Rules either pin
    a field to the baseline (exactly, or within a tolerance the baseline
    file stores), hold on the current run alone, or are report-only.
    Every section in the table is required in both files. Hard checks
    cover only properties of the code, not the runner; wall-clock numbers
    only warn.

    Improvements pass silently; ratchet the baseline forward with
    [derive_baseline] (the CLI's [--update-baseline]). To gate a new
    section:
    + add one entry to the table;
    + regenerate the baseline with [--update-baseline];
    + commit the table entry and the baseline diff together. *)

exception Malformed of string
(** A field the gate needs is missing or mis-typed in either file — never
    a silent pass. *)

type verdict = { name : string; ok : bool; detail : string; hard : bool }

val check : current:Json.t -> baseline:Json.t -> verdict list

val passed : verdict list -> bool
(** [true] iff every {e hard} verdict is ok. *)

val render : verdict list -> string

val derive_baseline : Json.t -> Json.t
(** Project a bench file onto the table's keys and pinned fields (plus
    default tolerances): a fresh baseline document. *)
