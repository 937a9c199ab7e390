(** Length-prefixed, checksummed wire frames for the TCP transport.

    On the stream: a 4-byte big-endian length prefix, then a
    {!Qs_recovery.Codec.frame} body (tag ["QSRT"], version 1) carrying kind,
    claimed sender, sender incarnation, sequence number and payload. The
    codec's checksum covers all of it, so truncation, bit flips and injected
    garbage decode to {!Qs_recovery.Codec.Corrupt} — and because the [src]
    field is merely {e claimed} (authentication is the protocol payload's
    signature), a corrupt frame condemns only the connection that delivered
    it, never the process it names. *)

type kind =
  | Hello  (** First frame on a connection: announces src and incarnation. *)
  | Data  (** [payload] carries one protocol message. *)
  | Keepalive  (** Periodic liveness signal on an idle connection. *)

type t = {
  kind : kind;
  src : int;  (** Claimed sender pid — trusted only after payload-level verification. *)
  incarnation : int;
      (** Sender-process incarnation; a restart changes it, telling receivers
          to reset their per-sender dedup watermark. *)
  seq : int;  (** Per-(src, dst) monotone sequence number for dedup. *)
  payload : string;
}

val encode : t -> string
(** Length prefix + framed body. [Invalid_argument] if the body is over
    8 MiB, the bound above which {!read} rejects a length prefix as corrupt
    before allocating. *)

val decode_body : string -> t
(** Decode a body ({!encode} output {e without} its 4-byte prefix). Raises
    {!Qs_recovery.Codec.Corrupt} on any corruption. *)

val read : Unix.file_descr -> t
(** Blocking read of one frame. Raises [End_of_file] on a closed (or
    mid-frame dead) peer, {!Qs_recovery.Codec.Corrupt} on a bad frame,
    [Unix.Unix_error] on socket failure. *)

val write : Unix.file_descr -> t -> unit
(** Blocking write of one frame. *)
