(** E18 (extension): selection policies under correlated whole-region
    loss.

    Nine processes with f = 4 (q = 5) are spread over five regions in
    contiguous blocks (2,2,2,2,1). For each policy — lex-first, the
    seeded lottery, and diversity-capped with cap 1 — and each region,
    two survivor replicas run the policy in lockstep on identical
    evidence (determinism carries Agreement), record the standing
    quorum's {e exposure} [|Q ∩ region|] to the loss, and repair it
    through the conviction path: correlated blame covers the label's
    whole member set, so every lost member is permanently excluded and a
    fresh quorum is issued (a {!Qs_core.Selection_policy.Diversity_capped}
    policy whose caps the shrunken universe can no longer satisfy falls
    back to lex-first instead of chasing the epoch-aging loop).

    The availability story: a standing quorum masks one lost member — the
    next suspicion event repairs it with a single Theorem-3 quorum
    change — so a region loss is an {e outage} exactly when it takes two
    or more seats at once. Lex-first stacks two seats into each low-pid
    region and suffers outages there; the cap-1 policy never concedes
    more than one seat to any region, so its availability stays 1.0.

    Also checked: quorum intersection by counting over every cross-policy
    group of standing and repaired quorums (heterogeneous quorums of the
    same universe must overlap in >= n − 2f; the groups are non-vacuous),
    a sampled n = 1024 {!Qs_core.Quorum_intersection.check_sampled} point
    over a lex + lottery fan, Theorem-3 bounds per policy, repaired-quorum
    validity, and byte-deterministic lottery replay. The bench harness
    serializes {!measure} into the [policy] section of [BENCH_qsel.json];
    the machine-independent fields are gated by [check_bench]. *)

type point = {
  policy : string;
  standing : int list;  (** the pre-loss standing quorum *)
  max_exposure : int;
      (** worst [|standing ∩ region|] over all single-region losses *)
  outages : int;  (** regions whose loss takes [>= 2] seats *)
  availability : float;  (** fraction of region losses below the outage bar *)
  quorum_changes : int;  (** losses whose repaired quorum differs *)
  repairs_clean : bool;
      (** every repaired quorum has size [q], is independent, and excludes
          the lost region *)
  agreement : bool;  (** lockstep replicas agreed at every step *)
  t3_ok : bool;
  intersections : Qs_core.Quorum_intersection.verdict list;
      (** reserved for callers that thread per-policy groups; {!measure}
          leaves it empty and {!run} checks the cross-policy groups *)
}

val measure : unit -> point list
(** One point per policy, in [lex; lottery; diverse] order.
    Deterministic. *)

val cross_verdicts : unit -> Qs_core.Quorum_intersection.verdict list
(** The cross-policy intersection groups — one over the three standing
    quorums, one per region over the three repaired quorums. Every group
    must be [ok]; at least one must have [pairs > 0]. *)

val sampled_verdict : unit -> Qs_core.Quorum_intersection.verdict
(** The n = 1024 sampled point: lex-first plus a fan of five lottery
    draws over an edgeless graph, [max_pairs = 10]. *)

val run : unit -> Qs_stdx.Table.t * Verdict.t list
