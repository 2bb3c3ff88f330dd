(** Nestable wall-clock timing spans.

    Every span close is booked once, in {!Profile}'s per-call-path
    table, and {!snapshot} rolls that table up by span name: count,
    total and maximum duration, p50/p90/p99 from the merged log-bucket
    latency {!Histogram}s, and the minor/major words allocated inside
    the span's scope.  Allocation is read from the closing domain's
    own counters ([Gc.minor_words], and [Gc.counters] for major
    words), so a span is never charged for other domains' allocation,
    and reading them costs tens of nanoseconds, not a [Gc.quick_stat]
    walk over every domain.  Nesting is free-form —
    an inner span's time (and allocation) is also counted inside every
    enclosing span (the per-name stats are inclusive durations, not an
    exclusive-time tree; {!Profile} has the self-time view).

    Spans are {e disabled by default} and then cost one atomic load per
    {!with_} call (no clock read, no GC capture, no histogram, no
    allocation beyond the caller's closure).  [--stats] / [--report]
    style entry points call {!set_enabled}[ true]; timed sections must
    not change behavior either way.

    A close emits no event.  While a sink is active, {!Sink} drains
    the table's pending per-path deltas as [span.rollup] events
    (schema in {!Profile}) immediately before each milestone event and
    on each flush; {!Profile.of_events} folds them back into the live
    table for [bbng_cli flame] and [report --summarize], and
    {!Live_view} rebuilds each name's latency histogram from their
    buckets for [bbng_cli top].

    Every enter/exit pair drives {!Profile}: the profiler keeps a
    per-domain stack of open spans and attributes self-time and
    self-allocation to the full call path (see {!Profile}).

    The path table is sharded per domain (the {!Metrics} pattern), so
    spans close concurrently from {!Bbng_core.Parallel} domains without
    contending; keep spans coarse (per player / per phase, not per
    vertex). *)

type handle
(** An open span.  Handles are affine: closing twice is a no-op, and a
    handle opened while spans were disabled closes for free. *)

type stat = {
  count : int;
  total_ns : int;
  max_ns : int;
  minor_words : float;  (** GC minor words allocated inside the span *)
  major_words : float;
  p50_ns : float;  (** histogram estimates, within 2x of exact *)
  p90_ns : float;
  p99_ns : float;
}

val enabled : unit -> bool

val set_enabled : bool -> unit
(** The same flag as {!Profile.set_enabled}: one switch turns spans
    and call-path profiling on or off together. *)

val enter : string -> handle
val exit : handle -> unit
(** Close the span and record its duration.  Unbalanced use is safe:
    closing a handle twice records it once, and a never-closed handle
    simply records nothing. *)

val with_ : string -> (unit -> 'a) -> 'a
(** [with_ name f] runs [f] inside a span named [name]; the span closes
    (recording duration, latency-histogram sample and GC delta) even if
    [f] raises. *)

val snapshot : unit -> (string * stat) list
(** All recorded spans, sorted by name: {!Profile.closes_by_name}
    with its merged durations read as quantiles. *)

val reset_all : unit -> unit
(** Clears the one span table (same as {!Profile.reset_all}). *)
