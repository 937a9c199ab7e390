(** Experiments E2 and E3: the quorum-change bounds of Section VII.

    E2 (Theorem 3 + the "simulations suggest" claim): measure the maximum
    number of quorums adversaries can force Algorithm 1 to issue within one
    epoch — exhaustive search over injection orders plus randomized
    strategies — and check it against the proven [f(f+1)] bound and the
    conjectured tight [C(f+2,2)] value.

    E3 (Theorem 4 + Fig. 5): replay the optimal adversary on the live gossip
    cluster and check it forces exactly [C(f+2,2)] quorums (counting the
    initial default). *)

val e2_upper_bound : ?fs:int list -> unit -> Qs_stdx.Table.t * Verdict.t list
(** Defaults: [fs = [1;2;3;4;5;6]]; 20 random strategies per f. *)

val e3_lower_bound : ?fs:int list -> unit -> Qs_stdx.Table.t * Verdict.t list
(** Defaults: [fs = [1;2;3;4]]. Includes the Fig. 5 instance (f = 3). *)
