(** Signed-evidence store: proofs of misbehavior and permanent exclusion.

    The paper's detector turns {e omissions} into ◇-suspicions that age out
    of the quorum (Algorithm 1); commission faults admit something stronger.
    Because every suspicion row travels signed ({!Qs_core.Msg}), a process
    that equivocates — sends two conflicting rows for the same epoch-stamped
    state — hands its peers a {e transferable proof}: both frames verify
    under its own key, and no correct process can ever produce such a pair
    (a correct owner's rows grow monotonically, so any two of them are
    pointwise comparable). A proof can be gossiped and re-checked by anyone
    holding the key directory, and justifies {e permanent} exclusion from
    every future quorum — no aging, no retry budget.

    Forgeries are the asymmetric case: a frame whose tag fails
    {!Qs_crypto.Auth.verify} proves only that {e someone on the channel it
    arrived by} misbehaved — the claimed signer is innocent (that is the
    whole point of "cannot forge", Section IV). Forgeries therefore
    quarantine the channel peer locally and are {e never} transferable.

    Each process runs one store; the harness feeds it every suspicion row
    the process receives ({!observe}) and broadcasts any returned proof to
    the other stores ({!admit}). Journal events: [Proof_found],
    [Proof_admitted], [Forgery_rejected]. *)

module Msg := Qs_core.Msg

type proof = {
  culprit : Qs_core.Pid.t;
  first : Msg.t;
  second : Msg.t;  (** Two validly-signed, pointwise-incomparable rows. *)
}

val incomparable : int array -> int array -> bool
(** Neither row pointwise-dominates the other (or the lengths differ —
    malformed counts as conflicting). A correct process's row sequence is
    totally ordered, so incomparability convicts the signer. *)

val check_proof : Qs_crypto.Auth.t -> proof -> bool
(** Self-contained verification a gossip receiver runs before admitting:
    both frames verify under [culprit]'s key, both rows are owned by
    [culprit], and the rows are {!incomparable}. *)

type t

val create : auth:Qs_crypto.Auth.t -> me:int -> n:int -> t

type verdict =
  | Ok  (** Recorded (or stale/duplicate — absorbed). *)
  | Forged  (** Bad tag: channel quarantined, journaled, not recorded. *)
  | Proof of proof
      (** The frame conflicts with a retained one: transferable proof,
          already admitted locally. Broadcast it to the other stores. *)

val observe : t -> src:int -> Msg.t -> verdict
(** Feed one received suspicion row; [src] is the network-level sender (the
    channel), which for forwarded rows may differ from the frame's owner. *)

val admit : t -> proof -> bool
(** Verify a gossiped proof and, when valid and new, permanently exclude the
    culprit ([false] on invalid or already-known). Idempotent. *)

val excluded : t -> Qs_core.Pid.t list
(** Proven-guilty processes, sorted. Feed {!Qs_core.Quorum_select.exclude}
    / {!Qs_follower.Follower_select.exclude}. *)

val is_excluded : t -> Qs_core.Pid.t -> bool

val quarantined : t -> Qs_core.Pid.t list
(** Channels that delivered at least one forged frame (local-only blame). *)

val proofs : t -> proof list
(** Admitted proofs, first-admitted first. *)

val forgeries : t -> int
(** Forged frames rejected so far. *)

val set_on_exclude : t -> (Qs_core.Pid.t -> unit) -> unit
(** Called exactly once per newly-excluded culprit (local find or admitted
    gossip) — the harness wires this to the process's quorum selector. *)
