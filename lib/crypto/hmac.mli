(** HMAC-SHA256 (RFC 2104). *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 32-byte HMAC-SHA256 tag. *)

val mac_hex : key:string -> string -> string
(** Hex-encoded tag. *)

val verify : key:string -> string -> tag:string -> bool
(** Constant-time-ish comparison of a recomputed tag against [tag]. *)

type midstates
(** A key's inner and outer pads, each already absorbed into SHA-256.
    A MAC under them feeds copies, never the midstates themselves, so the
    value never changes after {!midstates} returns and any number of
    domains may share it. *)

val midstates : string -> midstates
(** Normalise the key and absorb both pads: two compressions, paid once
    per key instead of once per tag. *)

val mac_with : midstates -> string -> string
(** [mac_with (midstates key) msg] is [mac ~key msg]. *)

val verify_with : midstates -> string -> tag:string -> bool
(** [verify_with (midstates key)] is [verify ~key]. *)
