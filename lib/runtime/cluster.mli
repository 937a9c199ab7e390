(** Loopback cluster harness: XPaxos over real TCP, verdicted live.

    Runs [n] full runtime nodes ({!Node} over {!Tcp.Make}) on 127.0.0.1, a
    sequential client workload with client-side rebroadcast, a {!Nemesis}
    playing a fault schedule against the live sockets, and the online
    {!Qs_faults.Monitor} subscribed to the shared journal on wall-clock
    time — so a real run gets the same invariant verdicts as a simulated
    one. Used by the [runtime-chaos] CLI command, the bench [runtime]
    section, the CI smoke job and the parity tests. *)

module Wire : Tcp.WIRE with type msg = Envelope.t

module T : module type of Tcp.Make (Wire)

module N : module type of Node.Make (T)

type report = {
  n : int;
  f : int;
  requests_submitted : int;
  committed : int;  (** requests executed by at least [n - f] replicas *)
  prefix_agreement : bool;  (** pairwise over the correct replicas *)
  violations : Qs_faults.Monitor.violation list;
  monitor_checks : int;
  commits_observed : int;
  recoveries_completed : int;
  max_view : int;
  commit_latency_ns : int list;  (** submit → global commit, wall ns *)
  stats : Tcp.stats array;
  nemesis_installed : int;
  nemesis_unsupported : int;
}

val loopback_addrs : n:int -> ?base_port:int -> unit -> Unix.sockaddr array
(** [n] loopback addresses: consecutive from [base_port] when given,
    otherwise fresh ephemeral ports learned by transient binds. *)

val run :
  ?seed:int64 ->
  ?base_port:int ->
  ?mode:Qs_xpaxos.Replica.mode ->
  ?requests:int ->
  ?request_timeout_ms:int ->
  ?duration_ms:int ->
  ?schedule:Qs_faults.Fault.schedule ->
  n:int ->
  f:int ->
  unit ->
  report
(** Run the whole campaign and tear everything down. Defaults: quorum
    selection mode, 5 requests with a 4 s per-request commit deadline,
    empty schedule, 300 ms settle. [duration_ms] extends the run past the
    workload (to let open-ended fault phases act). The monitor's
    end-of-run recovery check runs only for in-model schedules, mirroring
    the chaos campaign's gating. [Invalid_argument] unless [n > 2f]. *)

val report_to_json : report -> Qs_obs.Json.t
