(** Lock-light log-bucketed value histograms.

    A histogram is 64 power-of-two buckets of atomic counts: value [0]
    lands in bucket 0 and a value in [[2^(i-1), 2^i)] lands in bucket
    [i].  Recording is a handful of atomic operations — no lock, no
    allocation — so {!module-Bbng_core.Parallel} domains share a
    histogram safely and hot paths can record per-call values when
    observability is switched on.

    A histogram is a plain value with no registry: named, scrapeable
    distributions are {!Metrics.histogram}s (one histogram per domain
    shard, merged on read), and {!Profile} keeps one per call path for
    the span latency quantiles.

    Quantile estimates interpolate linearly inside the bucket holding
    the requested rank.  Because the true rank-th value lies in the same
    power-of-two bucket, every estimate is within a factor of two of the
    exact sample quantile (and [max] is exact). *)

type t

val create : unit -> t

val record : t -> int -> unit
(** [record t v] adds one observation.  Negative values clamp to 0. *)

val count : t -> int
val total : t -> int

val max_value : t -> int
(** Exact maximum recorded value (0 when empty). *)

val bucket_bounds : int -> int * int
(** [(lo, hi)] inclusive value range of bucket [i]: [(0, 0)] for bucket
    0, [(2^(i-1), 2^i - 1)] otherwise. *)

val bucket_counts : t -> int array
(** Per-bucket observation counts, index-aligned with
    {!bucket_bounds}.  A fresh array; reading is atomic per bucket but
    not across buckets (concurrent writers may land between reads). *)

val of_buckets : (int * int) list -> total:int -> max_value:int -> t
(** [of_buckets counts ~total ~max_value] rebuilds a histogram from
    [(bucket index, count)] pairs (indexes as in {!bucket_bounds}; a
    repeated index adds up, one outside [[0, 64)] is ignored), the sum
    of the observations and their maximum — how a reader of
    [span.rollup] events recovers each span's distribution.  Its
    {!quantile}s equal those of the histogram the counts were read
    from. *)

val merge : t list -> t
(** A fresh histogram holding every observation of the given ones:
    buckets, counts and totals sum, max takes the max.  How per-domain
    shards and per-path cells aggregate into one distribution. *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [[0, 1]]: estimated [q]-quantile of the
    recorded values, within a factor of two of the exact sample
    quantile.  0 when empty; clamped to [[0, max_value]].  The top
    occupied bucket interpolates up to the exact max, so its last rank
    (in particular a lone sample there) reads exactly [max_value]. *)

val to_json : t -> Json.t
(** [{"count": _, "total": _, "max": _, "p50": _, "p90": _, "p99": _,
     "buckets": [{"lo": _, "hi": _, "count": _}, ...]}] with only the
    occupied buckets listed. *)

val reset : t -> unit
