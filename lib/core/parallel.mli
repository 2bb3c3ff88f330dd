(** Multicore helpers (OCaml 5 domains).

    Equilibrium certification is embarrassingly parallel across players
    — each player's best-response check touches only immutable data —
    so the expensive certifications (Figure 1, big tripods, shift
    graphs) and census shards fan out over domains.  No dependency
    beyond the standard library: one scheduler, where plain
    [Domain.spawn] workers claim indices one at a time from a shared
    atomic counter, with an atomic early-exit flag.

    Keep the task grain coarse: spawning a domain costs far more than a
    BFS, so these helpers are used at the per-player (or per-shard)
    level, not inside the subset enumeration.

    If a task raises, no further index is claimed, every domain is
    joined, and the first exception is re-raised with its backtrace: no
    worker outlives the call.

    Observability: spawns bump the [parallel.domains_spawned] counter,
    and every index never claimed because the early-exit flag tripped
    (or a task raised) bumps [parallel.chunks_abandoned] — so "early
    exit abandons work" is a measurable claim, not a doc promise (see
    [test_parallel]). *)

val recommended_domains : unit -> int
(** [max 1 (Domain.recommended_domain_count () - 1)]: leave one core
    for the caller. *)

val for_all : ?domains:int -> n:int -> (int -> bool) -> bool
(** [for_all ~n f] is [f 0 && ... && f (n-1)], evaluated on up to
    [domains] domains (default {!recommended_domains}) with early exit:
    once any index returns [false], no further index is claimed.  [f]
    must be safe to run concurrently (pure, or confined to its own
    mutable state).  With [domains <= 1] or [n <= 1] the caller runs
    every index itself. *)

val map : ?domains:int -> n:int -> (int -> 'a) -> 'a array
(** [map ~n f] is [[| f 0; ...; f (n-1) |]], the indices claimed
    dynamically by up to [domains] domains.  No early exit: every index
    is evaluated and lands in its own slot, so the result is the
    sequential one whatever the interleaving. *)
