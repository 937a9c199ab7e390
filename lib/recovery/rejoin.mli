(** Rejoin protocol: CRDT state transfer for recovering processes.

    A process restarting after an amnesia crash broadcasts [StateReq];
    every peer answers [StateResp] carrying its encoded [suspected] matrix,
    epoch, and an opaque stack-specific blob (XPaxos ships its committed
    log prefix there). The rejoiner max-merges each response — the matrix
    is a join-semilattice, so responses commute and repeat-merges are
    no-ops — fast-forwards its epoch, and declares recovery complete after
    [needed] distinct valid responses. Unanswered requests are rebroadcast
    with exponential backoff up to [max_retries].

    The transport is a callback, so the same engine runs over a plain
    simulated {!Qs_sim.Network} (chaos campaigns give each stack a parallel
    recovery plane) and over the model checker's controlled network (where
    every interleaving of requests and responses is explored).

    A periodic low-rate anti-entropy variant ([State_push], see
    {!start_gossip}) keeps long-partitioned processes converging even when
    they never crash: pushes are just unsolicited merges. *)

type payload = { matrix : string; epoch : int; extra : string }
(** [matrix] is {!Codec.encode_matrix} output — responses cross the wire
    encoded, so a corrupt or malicious blob is caught by the codec, not
    absorbed. [extra] is an opaque protocol-specific supplement (empty for
    bare Algorithm 1/2 stacks). *)

type msg =
  | State_req of { rid : int }
  | State_resp of { rid : int; payload : payload }
  | State_push of { payload : payload }  (** unsolicited anti-entropy *)
  | State_delta of { delta : string }
      (** {!Codec.encode_delta} output: rows changed since the receiver's
          last ack (delta-state gossip, see {!set_delta}) *)
  | Delta_ack of { acks : (int * int) list }
      (** per-row version acknowledgements, in the {e sender's} version
          space *)

type config = {
  n : int;
  needed : int;  (** distinct valid responses that complete a rejoin *)
  retry_every : Qs_sim.Stime.t option;
      (** initial rebroadcast delay; [None] disables timer-driven retries
          (the model checker's frozen-time mode) *)
  backoff : float;  (** retry delay multiplier, >= 1 *)
  max_retries : int;
  gossip_every : Qs_sim.Stime.t option;  (** {!start_gossip} period *)
}

val default_config : n:int -> config
(** needed = 1, retry every 50 ms doubling, 8 retries, no gossip. *)

type t

val create :
  sim:Qs_sim.Sim.t ->
  config ->
  me:int ->
  collect:(unit -> payload) ->
  adopt:
    (matrix:Qs_core.Suspicion_matrix.t -> epoch:int -> extra:string -> unit) ->
  send:(dst:int -> msg -> unit) ->
  unit ->
  t
(** [collect] snapshots the local state for answering peers; [adopt] is the
    CRDT join applied to each valid incoming payload (already decoded);
    [send] is the transport. *)

val start : t -> unit
(** Begin a rejoin round: journal [Recovery_started], broadcast
    [State_req], arm retries. While the round is open, valid payloads are
    {e buffered}, not adopted; at completion [Recovery_completed] is
    journaled first and then the whole buffer is adopted (a join, so order
    is irrelevant) — quorums issued by the re-evaluation land outside the
    monitor's stale-state window, and a round that never completes leaves
    the process dormant rather than half-recovered. *)

val handle : t -> src:int -> msg -> unit
(** Feed a received rejoin-plane message. Requests are answered
    unconditionally (serving state costs nothing and merges are safe);
    responses and pushes are decoded, counted as [bad_payloads] and ignored
    when corrupt, buffered during an open rejoin round, and otherwise
    adopted immediately — even late ones for an old round: merging extra
    state is free. *)

val start_gossip : t -> unit
(** Start the periodic [State_push] broadcast ([Invalid_argument] if the
    config has no [gossip_every]). *)

val push_now : t -> unit
(** Broadcast one unsolicited full [State_push] immediately, independent of
    the gossip timer — the graceful-leave anti-entropy handoff: a departing
    process ships its matrix so no suspicion it uniquely holds is lost with
    its removal. *)

val set_delta :
  t -> Qs_core.Delta.t -> on_merge:(unit -> unit) -> full_every:int -> unit
(** Switch gossip to delta-state mode: each tick ships every peer only the
    rows it has not acked ([State_delta], answered by [Delta_ack]), and
    every [full_every]-th tick broadcasts the usual full [State_push] as
    the anti-entropy backstop. [on_merge] runs after a delta changed the
    matrix — it must respect dormancy (e.g. [Quorum_select.reevaluate]):
    deltas, unlike full states, never wake a wiped process. An incoming
    [State_req] resets the requester's acked versions, so a rejoining
    amnesiac re-receives everything. *)

val gossip_bytes : t -> int
(** Payload bytes shipped by gossip ticks so far (full pushes count the
    encoded matrix once per destination; deltas their encoded size) — the
    bytes-gossiped metric of the scaling experiment. *)

val rejoining : t -> bool

val retries : t -> int
(** Rebroadcasts in the current/last round. *)

val completed_rounds : t -> int

val bad_payloads : t -> int
(** Responses rejected by the codec. *)

val rid : t -> int
(** Id of the current/last round (0 before the first). *)

val responded : t -> int list
(** Pids whose valid response the current round has counted. *)

val buffered : t -> payload list
(** Valid payloads received in the current round, newest first. *)

val gave_up : t -> int
(** Rounds abandoned after [max_retries]. *)

(** {2 Model-checker hooks} *)

val encode_msg : msg -> string
(** Canonical bytes for choice-point fingerprints. *)

val write_key :
  t -> Qs_stdx.State_key.t -> matrix:(Qs_stdx.State_key.t -> string -> unit) -> unit
(** The state as a model-checker key: round id, flags, counters, the
    responders relabeled through the key's labelling (a set, written
    sorted), and each buffered payload, whose encoded matrix [matrix]
    writes (conjugating it is the caller's: it may decode once and
    cache). The labelling need not be injective. *)

val write_msg :
  Qs_stdx.State_key.t -> matrix:(Qs_stdx.State_key.t -> string -> unit) -> msg -> unit
(** A message as a key, its payload written as in {!write_key}. The delta
    messages are written verbatim, pids included: a caller that relabels
    keys must keep delta gossip off. *)

type snapshot

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
