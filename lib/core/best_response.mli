(** Best responses.

    Theorem 2.1 proves finding a best response NP-hard (equivalent to
    k-center in the MAX version and k-median in the SUM version), so
    this module offers the full ladder:

    - {!exact}: brute force over all [C(n-1, b)] strategies — the
      ground truth used by the equilibrium certifier and the hardness
      experiments;
    - {!swap_best_refutation} / {!swap_refutation}: the polynomial
      single-arc deviations of Alon et al., used inside the paper's own
      proofs (Theorems 3.3, 4.x, 6.x) and as scalable dynamics moves;
    - {!greedy}: an incremental heuristic (build the target set one arc
      at a time), the workhorse for large dynamics workloads.

    Every search but {!greedy} is one walk over a candidate space
    (subsets, or single-arc swaps) with two thresholds: each candidate
    is priced against [min cap (cheapest kept so far)] and kept when it
    is below that, and the walk ends once a kept cost is below [stop].
    Before walking, every search but {!exact} climbs the same pruning
    ladder: the cost floor, then Lemma 2.2 (exact spaces only).

    {v
    search                              cap            stop
    exact_refutation, swap_refutation   current cost   current cost
    best_refutation                     current cost   floor + 1
    swap_best_refutation                current cost   never
    exact                               none           floor + 1
    audit_exact, audit_swap             none           current cost
    v}

    Every search takes an optional {!Bbng_obs.Budgeted.t} cancellation
    token ([?budget], default unlimited).  Context construction and the
    cheap fallback tiers always complete regardless of the token; only
    the candidate walk honours it.  The plain searches let
    {!Bbng_obs.Budgeted.Expired} propagate (their callers own the
    degradation policy); the audited checks turn interruption into a
    typed {!Degraded_scan} audit instead.

    The searched player's budget picks the pricing engine
    ({!Deviation_eval.engine}): distance rows when it owns two or more
    arcs, the overlay BFS otherwise.  Both are exact, so every result
    below is engine-independent; audits record which engine priced
    them so a certificate verifier can re-price through the other one.

    Pricing a candidate against its bound ({!Deviation_eval.cost_below})
    is exact below the bound; a candidate at or above it can change no
    answer, so results are those of pricing every candidate exactly.  A
    kept move is a sorted copy of the walk's reused target buffer.  The
    [br.candidates] counter counts every candidate priced, settled or
    not, and none that a cancellation token refused;
    [br.improving_moves] counts every kept candidate cheaper than the
    current cost.

    Searches on one domain reuse one parked pricing context
    ({!Deviation_eval.reset}) instead of building a new one per call;
    a search running while the context is out (a nested search, or
    another thread of the domain) gets a fresh context.  Results never
    depend on which it got. *)

type move = {
  targets : int array;  (** the (sorted) improving strategy *)
  cost : int;           (** the player's cost after switching *)
}

val satisfies_lemma_2_2 : Strategy.t -> int -> bool
(** Sufficient condition for "playing a best response" in {e both}
    versions (Lemma 2.2): [c_MAX(u) = 1], or [c_MAX(u) <= 2] and [u] is
    in no brace. *)

val exact :
  ?budget:Bbng_obs.Budgeted.t ->
  Game.t -> Strategy.t -> int -> move
(** The true best response of a player (ties broken toward the
    lexicographically smallest target set; the player's current strategy
    wins ties only if itself lexicographically smallest).  Exponential in
    the budget.
    @raise Bbng_obs.Budgeted.Expired if the token trips mid-scan. *)

val exact_refutation :
  ?budget:Bbng_obs.Budgeted.t ->
  Game.t -> Strategy.t -> int -> (move * int) option
(** [Some (m, c)] if the player can improve: [m] is the first strict
    improvement found (the walk stops there), paired with the player's
    current cost [c] as the search already priced it ([m.cost < c], [c]
    equal to [Game.player_cost]) — what the certifier reports in a
    refutation.  [None] iff the player is playing a best response.
    @raise Bbng_obs.Budgeted.Expired if the token trips mid-scan. *)

val best_improvement :
  ?budget:Bbng_obs.Budgeted.t ->
  Game.t -> Strategy.t -> int -> move option
(** The {e best} deviation (the first of least cost), or [None] if
    already optimal: {!best_refutation} without the current cost.
    @raise Bbng_obs.Budgeted.Expired if the token trips mid-scan. *)

val best_refutation :
  ?budget:Bbng_obs.Budgeted.t ->
  Game.t -> Strategy.t -> int -> (move * int) option
(** Like {!exact_refutation}, but the move is the best deviation (the
    walk stops early only at the cost floor): what dynamics needs to
    apply a move and report its gain without re-pricing the profile.
    @raise Bbng_obs.Budgeted.Expired if the token trips mid-scan. *)

val swap_best_refutation :
  ?budget:Bbng_obs.Budgeted.t ->
  Game.t -> Strategy.t -> int -> (move * int) option
(** Best strict improvement obtainable by replacing exactly one owned
    arc (keeping the other [b - 1]), paired with the current cost like
    {!best_refutation}; [None] if no swap improves.  O(b * n) cost
    evaluations.
    @raise Bbng_obs.Budgeted.Expired if the token trips mid-scan. *)

val swap_refutation :
  ?budget:Bbng_obs.Budgeted.t ->
  Game.t -> Strategy.t -> int -> (move * int) option
(** First strict improvement by a single swap, scan order: owned arcs
    increasing, replacement targets increasing; paired with the current
    cost like {!exact_refutation}.
    @raise Bbng_obs.Budgeted.Expired if the token trips mid-scan. *)

(** {1 Audited checks}

    The equilibrium certifier's evidence-producing layer: the same
    pruning ladder as {!exact_refutation} / {!swap_refutation},
    but returning {e what was checked} — which tier decided, how many
    candidates were evaluated, and the cheapest candidate seen — so a
    certificate written to disk can later be re-verified without
    re-running the search (see [Equilibrium.verify_certificate]). *)

type tier =
  | Cost_floor       (** current cost equals the Lemma 2.2 floor; no scan *)
  | Lemma_2_2_tier   (** Lemma 2.2's structural condition held; no scan *)
  | Exhaustive       (** all [C(n-1,b)] strategies were enumerated *)
  | Swap_exhaustive  (** all [b(n-1-b)] single-arc swaps were enumerated *)
  | Degraded_scan
      (** the scan was interrupted by an expired cancellation token:
          [scanned] candidates were evaluated, none improving — partial
          evidence, not a best-response proof *)

val tier_name : tier -> string
(** Stable on-disk names: ["cost-floor"], ["lemma-2.2"], ["exact"],
    ["swap"], ["degraded"]. *)

val tier_of_name : string -> tier option

type audit = {
  tier : tier;
  engine : Deviation_eval.engine;
      (** which pricing engine evaluated the candidates — recorded so a
          verifier can re-price through the other one *)
  scanned : int;          (** candidate strategies actually evaluated *)
  candidates : Bbng_graph.Combinatorics.count;
      (** size of the space the tier set out to scan ([Exact 0] for the
          no-scan tiers); [Saturated] when [C(n-1,b)] overflows, which
          is an explicit marker, never a clamped number *)
  current : int;          (** the player's cost under the profile *)
  best : move option;     (** cheapest candidate seen ([None] when pruned) *)
  improving : move option;
      (** a strictly improving candidate; [None] iff the player is
          playing a best response (under the tier's notion) *)
}

val audit_exact :
  ?budget:Bbng_obs.Budgeted.t ->
  Game.t -> Strategy.t -> int -> audit
(** Audited exact check.  Prunes exactly like {!exact_refutation}
    (and agrees with it on [improving = None]); when no pruning fires
    and no improvement exists, the scan is complete — [scanned =
    C(n-1,b)] and [best.cost = current] (the current strategy is among
    the candidates).  A refutation stops at the first improvement
    found, like the plain certifier.

    Under an expired [?budget] the scan stops between candidate
    evaluations and the audit comes back with [tier = Degraded_scan],
    [scanned] = candidates actually priced, [improving = None], and
    [best] = cheapest candidate seen so far — never an exception.  The
    cheap tiers ([Cost_floor], [Lemma_2_2_tier]) still classify players
    regardless of the token, so a deadline degrades only the players
    that genuinely needed the exponential scan. *)

val audit_swap :
  ?budget:Bbng_obs.Budgeted.t ->
  Game.t -> Strategy.t -> int -> audit
(** Audited swap-stability check (cost-floor pruning only; Lemma 2.2
    is about exact best responses).  Degrades under an expired
    [?budget] exactly like {!audit_exact}. *)

val greedy :
  ?budget:Bbng_obs.Budgeted.t ->
  Game.t -> Strategy.t -> int -> move
(** Heuristic response: pick the [b] targets one at a time, each time
    adding the target that minimizes the player's cost with the partial
    set (a k-center/k-median-style greedy).  Not necessarily improving,
    never validated as optimal; intended as a dynamics move and as an
    initializer for local search. *)
