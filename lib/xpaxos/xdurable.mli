(** Durable XPaxos replica state: codecs, persistence, rejoin payloads.

    Factored out of {!Xcluster} so the same logic drives both the simulated
    cluster and the real-transport runtime node ({!Qs_runtime}): the durable
    snapshot layout, the rejoin payload with its signed log-prefix
    supplement, and the amnesia restart that re-imports the last fsync
    point.

    {b Key layout.} Every value is a {!Qs_recovery.Codec} frame (tagged,
    versioned, checksummed).
    - [log]: the base snapshot — every committed entry, with its original
      prepare signature — stamped with the writing log's identity and its
      version at the time ({!Xlog.id}, {!Xlog.version}).
    - [log.1], [log.2], …: deltas on that base, each holding the current
      form of the committed entries that changed since the previous write
      (newly committed slots, and committed slots whose prepare was
      re-signed at a newer view), stamped like the base they extend.
    - [state]: one small record — the view, the adapted timeouts, the
      selector's epoch and suspicion matrix (quorum-selection mode only)
      and the log's position in this store: the base's stamp, the log
      version written, the delta count and the payload bytes of base and
      deltas.

    {b Persist.} Each execute writes the changed entries as one delta and
    rewrites [state], so its cost follows what changed, not the log's
    length. A store whose position names another writer — a fresh store,
    another log, this log before an amnesia clear — or a version the log's
    change journal no longer reaches gets a full base instead. Compaction:
    once a base's deltas add up to an eighth of its bytes, the next change
    writes a new base, so a store holds at most about 9/8 of one snapshot
    (plus deltas of an older base not yet overwritten) and base writes cost
    at most eight times the delta bytes between them. No option or setting
    changes this rule.

    {b Recovery} ({!amnesia}, {!durable_log}) reads only the durable layer:
    [state], and the base followed by [log.1], [log.2], … for as long as
    they carry the base's stamp, a later form of a slot replacing an
    earlier one. A corrupt [state] recovers view 0, no timeouts and an
    empty selection state; a corrupt base reads as an empty log and a
    corrupt delta ends the chain. The entries then pass the same provenance
    check as a view change's ({!Replica.import_log_prefix}). *)

val encode_entries : Xmsg.entry list -> string
(** The whole-log encoding the rejoin supplement carries. *)

val decode_entries : string -> Xmsg.entry list
(** Raises {!Qs_recovery.Codec.Corrupt}, also when the entry count exceeds
    what the payload's length can hold. *)

val persist : Replica.t -> Qs_recovery.Store.t -> unit
(** Write the replica's durable state (view, committed log, selector matrix
    and epoch, adapted timeouts) and fsync — the per-execute durability
    point. Incremental on a store this replica's log wrote last; see the
    layout above. *)

val durable_log : Qs_recovery.Store.t -> Xmsg.entry list
(** The committed entries a recovery reads from the store's durable layer,
    in slot order, before the provenance check. *)

val collect_payload : n:int -> Replica.t -> Qs_recovery.Rejoin.payload
(** The replica's state as a rejoin payload: encoded matrix and epoch
    (trivial in enumeration mode) plus a supplement carrying the view and
    the committed log prefix with original prepare signatures. *)

val adopt_payload :
  Replica.t ->
  matrix:Qs_core.Suspicion_matrix.t ->
  epoch:int ->
  extra:string ->
  unit
(** The rejoiner's CRDT join: import the supplement's committed entries
    (provenance-checked), catch up the view, and absorb matrix and epoch
    into the embedded selector. A corrupt supplement is skipped — the
    matrix merge still applies. *)

val amnesia :
  n:int -> Replica.t -> Qs_recovery.Store.t option -> Qs_recovery.Rejoin.payload
(** Amnesia-crash one replica: drop the store's unflushed writes, wipe the
    volatile state ({!Replica.amnesia_restart}), re-import the durable
    snapshot (view, timeouts, log) and return the durable selection state
    as a payload — feed it to the replica's rejoin engine as a self
    [State_push] after [Rejoin.start]. With no store the crash loses
    everything and the payload is trivial. *)
