(** An XPaxos process over an abstract transport.

    Bundles the unmodified {!Qs_xpaxos.Replica} core with its durable store
    ({!Qs_xpaxos.Xdurable} persistence at every execute) and a
    {!Qs_recovery.Rejoin} engine, both planes multiplexed through
    {!Envelope} on one {!Transport.TRANSPORT}. Instantiated with
    {!Transport.Sim} it runs in the discrete-event simulator; with
    {!Tcp.Make} the same code runs over real sockets — the sim-vs-real
    parity the runtime tests assert. *)

module Make (T : Transport.TRANSPORT with type msg = Envelope.t) : sig
  type t

  val create :
    config:Qs_xpaxos.Replica.config ->
    me:int ->
    auth:Qs_crypto.Auth.t ->
    transport:T.t ->
    ?store:Qs_recovery.Store.t ->
    ?rejoin_config:Qs_recovery.Rejoin.config ->
    ?on_execute:(slot:int -> Qs_xpaxos.Xmsg.request -> unit) ->
    unit ->
    t
  (** Installs the transport handler for [me]. With a [store], every
      executed request persists-and-fsyncs the durable state, and the
      initial state is persisted as the baseline snapshot. Default rejoin
      config: 1 response needed, 1 s anti-entropy gossip. *)

  val me : t -> int

  val replica : t -> Qs_xpaxos.Replica.t

  val rejoin : t -> Qs_recovery.Rejoin.t

  val store : t -> Qs_recovery.Store.t option

  val submit : t -> Qs_xpaxos.Xmsg.request -> unit
  (** Post a client request into the node's execution context
      (thread-safe). *)

  val start_gossip : t -> unit

  val persist : t -> unit
  (** Persist-and-fsync now (no-op without a store). *)

  val crash_amnesia : t -> unit
  (** Post an amnesia crash-recovery: wipe volatile state, re-import the
      durable snapshot, start a rejoin round and self-push the durable
      selection state — the kill-then-restart path; the node then rejoins
      through the recovery plane automatically. *)
end
