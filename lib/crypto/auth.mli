(** Simulated digital signatures for the protocol stack.

    The paper assumes unbreakable cryptographic primitives and messages
    "correctly authenticated" by their sender (Section IV). We model this with
    per-process HMAC keys derived from a master secret held by a directory
    [t]: a message is validly signed by process [i] iff it carries the tag
    produced with [i]'s key. Byzantine processes in the simulation hold their
    own key (so they can sign arbitrary payloads of their own) but cannot
    forge another process's tag — the two properties the proofs rely on.

    This substitutes for public-key signatures exactly the way MAC vectors
    substitute for signatures in PBFT; see DESIGN.md Section 2. *)

type t
(** Key directory for a fixed process universe. *)

type signature = string
(** 32-byte tag. *)

val create : ?master:string -> int -> t
(** [create ~master n] derives keys for processes [0 .. n-1]. The default
    master secret is fixed, so simulations are reproducible. *)

val universe : t -> int
(** Number of processes the directory knows. *)

val sign : t -> signer:int -> string -> signature
(** Tag [payload] with [signer]'s key. *)

val verify : t -> signer:int -> string -> signature -> bool
(** Does the tag check out under [signer]'s key? [false] for a signer
    outside the directory. *)

type signed = {
  signer : int;
  payload : string;
  signature : signature;
}
(** A self-describing signed payload. *)

val seal : t -> signer:int -> string -> signed

val check : t -> signed -> bool
(** Verify a [signed] value against its claimed signer. *)

val forge : t -> claimed:int -> string -> signed
(** A deliberately invalid signature claiming to come from [claimed]: what a
    Byzantine process can do {e without} the victim's key. [check] always
    rejects it; used by tests and adversary behaviors. *)
