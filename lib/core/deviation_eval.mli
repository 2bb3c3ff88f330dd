(** Fast repeated evaluation of one player's deviations.

    Exact best-response search evaluates thousands of candidate
    strategies of a single player against a {e fixed} rest-of-profile.
    The generic route ({!Game.deviation_cost}) rebuilds the whole
    digraph and its undirected view per candidate; this module builds
    the static part — every arc {e not} owned by the deviating player,
    as undirected adjacency — once, and prices candidates with one of
    two exact engines, picked by the player's budget: [Rows] when the
    player owns two or more arcs, [Bfs_overlay] otherwise.

    Both rest on the one-arc shortest-path lemma: a shortest path from
    the player never revisits the player, so it uses {e at most one} of
    the player's arcs, necessarily as its first edge.  Hence

    {v dist_i(v) = min over t in (targets ∪ staticN(i)) of
                     1 + dist_{G∖i}(t, v) v}

    where [G∖i] is the player-deleted static graph — a quantity that
    does {e not} depend on the candidate at all.

    - [Bfs_overlay] runs one fresh BFS per candidate, overlaying the
      player's tentative arcs as first steps: O(n + m) per candidate.
    - [Rows] precomputes one BFS row per first-hop vertex of [G∖i]
      (lazily, cached under a configurable cap with eviction counters),
      plus a single multi-source row for the static neighbors.  A
      candidate's distances are then those of a multi-source BFS from
      its b+1 rows' seeds, priced by the level identity: with
      U{^d} the set of vertices within d of some seed, R = |U{^∞}|
      the reached count and D the first level with |U{^D}| = R,

      {v
      SUM = R + Σ_{d<D} (R − |U^d|) + (n−1−R)·n²
      MAX = D + 1                     (connected: R = n − 1)
      v}

      and a disconnected MAX counts components as below.  Each row is
      stored as level bitsets (level d = the vertices within d, packed
      62 to an int).  A candidate is the union of {e two} rows: a
      prefix row P (the base OR'd with every target row but the last,
      built into a reused buffer and kept while consecutive candidates
      share those targets, as an odometer scan's do) and the last
      target's row L, so a level of U costs one OR and one popcount
      per word.  Deep graphs would make the walk worse than the plain
      O(b·n) min-combine over int rows, so each context picks its
      representation from its base row: bitsets when 2·(depth+1)·⌈n/62⌉
      <= n (depth bounds every candidate's D, see {!row_layout}), int
      rows otherwise.  Over a C(n-1, b) exhaustive scan either way
      replaces O(C(n-1,b)·(n+m)) with one BFS per row plus a
      per-candidate combine.

    A scan needs a candidate's exact price only when it could beat the
    scan's threshold.  {!cost_below} takes that threshold as [bound]
    and, on level bitsets, settles a candidate that provably costs at
    least [bound] by the first of three exact tiers that applies:
    - {e populations}: each row's level sizes |L{^d}| are recorded when
      it is built and the prefix keeps its own |P{^d}|, and
      |U{^d}| <= |P{^d}| + |L{^d}|, so with T the depth bound
      SUM >= (n−1) + Σ_{d<=T} max(0, n−1−|P{^d}|−|L{^d}|) and
      MAX >= 1 + the first d with |P{^d}| + |L{^d}| >= n−1;
    - {e the exact reach} R = |P{^T} ∪ L{^T}| (one OR per word): a
      disconnected candidate has SUM >= R + (n−1−R)·n² and MAX >= n²;
    - {e the level walk}, which stops once its partial SUM, or D + 1
      under MAX, reaches [bound].
    A settled candidate prices as [bound]; any other is exact.  Int-row
    and overlay contexts ignore [bound].

    In both engines the vertices an evaluation misses induce the same
    components as in the static graph (none of their edges involve the
    player), so the MAX version's [kappa] is recovered without
    rebuilding anything.

    The observable behaviour of both engines is {e identical} to the
    generic route (qcheck properties in the test suite pin
    rows ≡ overlay ≡ generic); the win is the per-candidate constant. *)

type t

type engine = Bfs_overlay | Rows
(** The two exact pricing engines (see the module preamble).  The
    player's budget picks one: [Rows] when the player owns at least two
    arcs (rows amortize only when candidates share first hops),
    [Bfs_overlay] otherwise. *)

val engine_name : engine -> string
(** ["bfs"] or ["rows"] — the stable names certificates record. *)

val engine_of_name : string -> engine option

val make :
  ?budget:Bbng_obs.Budgeted.t ->
  ?engine:engine ->
  ?row_cache_cap:int ->
  Cost.version ->
  Strategy.t ->
  player:int ->
  t
(** Captures the fixed part.  O(n + m).  [?budget] (default unlimited)
    is the cancellation token every subsequent {!cost} call honours.
    [?engine] overrides the budget rule (see {!type:engine}); only
    callers that compare the engines need it (a certificate verifier
    re-pricing through the other engine, the oracle tests, the engine
    ablation).
    [?row_cache_cap] bounds how many distance rows the [Rows] engine
    keeps live (FIFO eviction, clamped to ≥ 1; the default keeps the
    cache under ~64 MB and never evicts at paper scales).  Cache
    traffic is observable as the [deveval.rows_built] /
    [deveval.row_hits] / [deveval.rows_evicted] counters.

    A context is single-domain state: parallel certification gives each
    domain its own context, rows are never shared across domains.
    Every call returns a fresh context owned by the caller alone.
    @raise Invalid_argument on an out-of-range player. *)

val reset :
  ?budget:Bbng_obs.Budgeted.t ->
  ?row_cache_cap:int ->
  t ->
  Cost.version ->
  Strategy.t ->
  player:int ->
  unit
(** [reset ctx version profile ~player] re-seats [ctx] on a new
    profile and player, exactly as if it were [make]'s result with the
    same arguments (the engine follows the new player's budget, even
    if [ctx] was made with a forced [?engine]).
    The scratch arrays, the static adjacency and the row table are
    reused, growing only when the new profile is larger; cached rows
    and the prefix row are dropped and the token is replaced.  O(n + m), with no
    allocation once the context has seen a profile at least this
    large.  Valid at any point, including after a scan interrupted by
    {!Bbng_obs.Budgeted.Expired}.
    @raise Invalid_argument on an out-of-range player (the context and
    the [deveval.contexts] counter are left unchanged). *)

val release : t -> unit
(** Drops the context's cached rows and prefix row, its reference to the profile's
    strategy and its token, so a context parked for reuse pins no
    memory beyond its scratch arrays.  A released context must be
    {!reset} before its next {!cost}. *)

val player : t -> int
val version : t -> Cost.version

val engine : t -> engine
(** The engine this context prices with: the budget rule's pick unless
    {!make} forced one. *)

type row_layout =
  | Int_rows       (** one int per vertex; an O(b·n) min-combine *)
  | Level_bitsets  (** cumulative level bitsets; the level identity *)

val row_layout : t -> row_layout option
(** How this context stores its distance rows: [None] for an overlay
    context, and for a rows context that has not priced anything yet
    (the choice is made when its first evaluation builds the base
    row).  The choice is [Level_bitsets] iff
    [2·(depth+1)·⌈n/62⌉ <= n], where [depth] is the base row's depth,
    or, if larger, twice the eccentricity of one vertex in each
    component of [G∖i] the base row misses (a candidate's coverage
    depth is bounded by the former inside the base's reach and by the
    component diameters outside it).  It is an
    observable of the graph, not a knob: prices are identical either
    way. *)

val budget : t -> Bbng_obs.Budgeted.t

val set_budget : t -> Bbng_obs.Budgeted.t -> unit
(** Swap the cancellation token.  Used to warm a context up unlimited
    (so the cheap fallback tiers always have a current cost to compare
    against) and only then arm the caller's deadline for the expensive
    scan. *)

val cost : t -> int array -> int
(** [cost ctx targets] ([cost_below ~bound:max_int]) is the player's
    cost if it plays [targets]
    (sorted or not; duplicates, self-targets and out-of-range vertices
    are rejected).  Budget length is {e not} enforced here — the
    evaluator is also used on partial target sets by the greedy
    heuristic.

    Honours the context's cancellation token: checkpoints it on entry
    (raising {!Bbng_obs.Budgeted.Expired} once the token has tripped)
    and charges the work done after — the reached-vertex count per
    overlay BFS, the popped count per row build, [(b+1)·n] cells per
    combine under either row layout — so interruption lands {e between} candidate evaluations,
    never mid-BFS, and the row cache is never left with a torn row
    (rows are installed only after their BFS completes; the
    [deveval.row_build] fault probe sits before the build for the
    crash-safety matrix).
    @raise Invalid_argument on a self-target, a duplicate target or an
    out-of-range vertex.
    @raise Bbng_obs.Budgeted.Expired once the token has expired. *)

val cost_below : t -> int array -> bound:int -> int
(** [cost_below ctx targets ~bound] is {!cost} where that is below
    [bound], and otherwise some value [>= bound] (so a scan can compare
    the result against [bound] and learn whether it is exact).  A
    level-bitset context settles most candidates of an exhaustive scan
    without the full level walk (the settling tiers of the module
    preamble); int-row and overlay contexts ignore [bound] and stay
    exact.  Same validation, cancellation and work charge as {!cost},
    whichever tier settles the candidate.
    @raise Invalid_argument as {!cost}.
    @raise Bbng_obs.Budgeted.Expired once the token has expired. *)

val current_cost : t -> int
(** Cost of the player's actual strategy in the captured profile. *)
