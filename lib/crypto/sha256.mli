(** Pure-OCaml SHA-256 (FIPS 180-4) over native ints masked to 32 bits.

    The container is sealed, so we vendor the hash rather than depend on an
    external crypto package. Verified against the FIPS test vectors in
    [test/test_crypto.ml]. Every block compression is counted in
    {!Counters}. *)

type digest = string
(** 32-byte raw digest. *)

val digest_string : string -> digest
(** SHA-256 of the whole string. *)

val hex : digest -> string
(** Lowercase hex encoding (64 characters for a full digest). *)

val digest_hex : string -> string
(** [digest_hex s] is [hex (digest_string s)]. *)

type ctx
(** Streaming context. *)

val init : unit -> ctx

val copy : ctx -> ctx
(** An independent context in the same state: feeding either leaves the
    other unchanged. *)

val feed : ctx -> string -> unit
(** Absorb bytes; may be called repeatedly. *)

val finalize : ctx -> digest
(** Produce the digest. The context must not be used afterwards. *)
