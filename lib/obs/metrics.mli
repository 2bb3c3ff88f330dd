(** Per-domain sharded live-metrics registry.

    {!Counter} cells are process-global: every domain that bumps
    [parallel.chunks_abandoned] hits the same cache line.  That is
    fine for post-hoc stats, but a live scrape path wants hot
    recording to stay contention-free.  A {e sharded} metric is
    {!shards} independent cells; each writer touches only the cell
    indexed by its domain id ([Domain.self () land (shards - 1)]), and
    reads aggregate across cells.

    Aggregation is exact once writers have quiesced (after
    [Parallel]'s domains join) and momentarily racy while they run —
    the usual scrape contract: an in-flight increment lands in this
    snapshot or the next one, never nowhere.  Snapshots never stop
    writers.

    All three metric kinds are find-or-create by name, so modules
    declare their metrics at top level.  This is the one histogram
    registry: [run.summary]'s [histograms] object and [--stats]' list
    read it.  {!Openmetrics} renders the whole registry (plus the
    {!Counter} registry) as a Prometheus/OpenMetrics text
    exposition. *)

val shards : int
(** Number of shards per metric (a power of two). *)

val shard_index : unit -> int
(** The calling domain's shard: [Domain.self () land (shards - 1)]. *)

(** {1 Counters} *)

type counter

val counter : ?help:string -> string -> counter
(** Find-or-create (the first caller's [help] wins). *)

val incr : counter -> unit
val add : counter -> int -> unit

val counter_value : counter -> int
(** Sum over all shards. *)

val counter_shard_values : counter -> int array
(** Per-shard values, for tests and shard-balance introspection. *)

(** {1 Gauges} *)

type gauge

val gauge : ?help:string -> ?labels:(string * string) list -> string -> gauge
(** Find-or-create by [(name, labels)].  Gauges are set-to-value, so
    they are a single cell, not sharded; label values are escaped by
    the OpenMetrics renderer, not here. *)

val set : gauge -> float -> unit
val set_int : gauge -> int -> unit
val gauge_value : gauge -> float

(** {1 Histograms} *)

type histogram

val histogram : ?help:string -> string -> histogram
(** Find-or-create.  Each shard is a log-bucketed {!Histogram.t}. *)

val observe : histogram -> int -> unit

val histogram_snapshot : histogram -> Histogram.t
(** The shards merged into one fresh histogram ({!Histogram.merge}). *)

(** {1 Snapshots} *)

type snapshot = {
  counters : (string * string * int) list;  (** name, help, value *)
  gauges : (string * string * (string * string) list * float) list;
      (** name, help, labels, value *)
  histograms : (string * string * Histogram.t) list;
      (** name, help, merged distribution *)
}

val snapshot : unit -> snapshot
(** Name-sorted aggregated view of the whole registry, taken without
    stopping writers. *)

val to_json : unit -> Json.t
(** Flat rendering for [run.summary]'s [metrics] field: counters and
    gauges as numbers.  Histograms are left to [run.summary]'s
    [histograms] object, so none is listed twice. *)

val reset_for_tests : unit -> unit
(** Zero every registered metric (the registry keeps its entries). *)
