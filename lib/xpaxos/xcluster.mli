(** An XPaxos cluster in the discrete-event simulator: the shared
    {!Qs_sim.Smr_cluster} (commit once [n − f] replicas executed) plus
    per-link fault injection on top of replica-level faults, view counters
    and deep durability. *)

include
  Qs_sim.Smr_cluster.S
    with type replica = Replica.t
     and type msg = Xmsg.t
     and type request = Xmsg.request
     and type config = Replica.config
     and type fault = Replica.fault

val omit_link : t -> src:Qs_core.Pid.t -> dst:Qs_core.Pid.t -> unit
(** Drop every message on one direction of a link (an omission failure the
    sender commits on an individual link). *)

val delay_link : t -> src:Qs_core.Pid.t -> dst:Qs_core.Pid.t -> by:Qs_sim.Stime.t -> unit
(** Add fixed extra latency on a link (timing failure). *)

val max_view : t -> int
(** Largest view any replica installed — the E5 metric. *)

(** {2 Durability and amnesia crashes}

    With {!attach_durability}, every replica persists its durable state —
    view, committed log prefix, selection matrix and epoch, adapted
    timeouts — into an in-simulation {!Qs_recovery.Store} at each execute,
    under the store's fsync-point model. {!amnesia} then crashes one
    replica: volatile state is wiped, the durable snapshot is re-imported,
    and the caller feeds the returned payload plus the peers' [StateResp]s
    through a {!Qs_recovery.Rejoin} engine wired with {!collect_payload} /
    {!adopt_payload}. *)

val attach_durability : ?fsync_every:int -> t -> unit
(** Create one store per replica (see {!Qs_recovery.Store.create} for
    [fsync_every]) and persist-and-fsync the current state as the baseline
    snapshot. Idempotent. *)

val store : t -> Qs_core.Pid.t -> Qs_recovery.Store.t
(** [Invalid_argument] unless {!attach_durability} was called. *)

val collect_payload : t -> Qs_core.Pid.t -> Qs_recovery.Rejoin.payload
(** This replica's state as a rejoin payload: encoded matrix and epoch
    (trivial in enumeration mode) plus a supplement carrying the view and
    the committed log prefix with original prepare signatures. *)

val adopt_payload :
  t ->
  Qs_core.Pid.t ->
  matrix:Qs_core.Suspicion_matrix.t ->
  epoch:int ->
  extra:string ->
  unit
(** The rejoiner's CRDT join: import the supplement's committed entries
    (provenance-checked), catch up the view (enumeration mode; selection
    mode moves views through the selector), and absorb matrix and epoch
    into the embedded selector. A corrupt supplement is skipped — the
    matrix merge still applies. *)

val amnesia : t -> Qs_core.Pid.t -> Qs_recovery.Rejoin.payload
(** Amnesia-crash one replica: drop its store's unflushed writes, wipe the
    volatile state ({!Replica.amnesia_restart}), re-import the durable
    snapshot (view, timeouts, log prefix) and return the durable selection
    state as a payload — feed it to the replica's rejoin engine as a self
    [State_push] {e after} [Rejoin.start], so it merges at completion with
    the peers' responses. Without {!attach_durability} the crash loses
    everything and the payload is trivial. *)
