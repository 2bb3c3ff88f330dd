(** Offline consumers of recorded JSONL event streams.

    A [--report] file is one JSON object per line, each stamped with
    [ts_us] by {!Sink.emit}.  This module re-reads such a stream and
    either converts it to the Chrome trace-event format (openable in
    Perfetto / [chrome://tracing]) or pretty-prints the run without
    re-running it — the [bbng_cli report] subcommand is a thin wrapper
    over these two functions. *)

val event_of_line : string -> Json.t option
(** Decode one JSONL line as an event: [Some] object carrying an
    ["event"] field, [None] for anything else (not JSON, torn JSON,
    another shape).  Blank lines are the caller's to ignore — both
    {!read_events} and {!Live_view.feed_line} skip them uncounted. *)

val event_name : Json.t -> string
(** The event's ["event"] field, or ["?"] when it has none — the one
    reader of that field that {!Replay}, {!Live_view} and this module
    share. *)

val read_events : in_channel -> Json.t list * int
(** Read a JSONL stream to end-of-file.  Returns the event objects (in
    order) and the count of skipped lines — lines that are not JSON or
    carry no ["event"] field are skipped, not fatal, so a report piped
    through stdout alongside normal CLI output still loads. *)

val to_chrome : Json.t list -> Json.t
(** Chrome trace-event JSON:
    [{"traceEvents": [...], "displayTimeUnit": "ms"}].  Every record
    carries [name]/[ph]/[ts]/[dur] (plus [pid]/[tid]/[args]): every
    event becomes a [ph:"i"] instant carrying its fields as [args] —
    a [span.rollup] (the per-path span totals drained at a milestone,
    see {!Profile}) included — [dynamics.step] events additionally
    feed a [ph:"C"] [social_cost] counter track, and
    [progress.heartbeat] events feed a per-task [work_done:<task>]
    counter track, the run's progress curve. *)

val summarize : Json.t list -> out_channel -> unit
(** Pretty-print a recorded run: event tally, time range, dynamics
    outcomes (individually when at most five, and always as an
    aggregated section — outcome counts by rule, step statistics and a
    power-of-two steps histogram), the last [progress.heartbeat] per
    task with its achieved overall rate (on a crash-truncated
    [.partial] this dates the death to within one tick), the top-10
    self-time call paths folded from the [span.rollup] events
    ({!Profile.of_events}), and the final
    [run.summary] re-rendered (provenance, counters by count, spans by
    total time, GC delta). *)
