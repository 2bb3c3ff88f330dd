(** Tail-and-render engine behind [bbng_cli top].

    Folds a [--report] JSONL stream — finished, or still being written
    by a live run — into a {!state} and renders a compact terminal
    frame from it: current phase (last dynamics step / event), latest
    [progress.heartbeat] (rate, ETA, budget headroom), top counters
    from the heartbeat's embedded snapshot, and per-span-name latency
    quantiles rebuilt from the duration buckets of the tailed
    [span.rollup] events.

    Robustness contract: the tail consumes only complete
    newline-terminated lines (a half-written trailing line stays
    buffered until the writer finishes it), and {!feed_line} treats
    unparseable input as a counted skip, never an exception — so
    watching a [.partial] mid-write, or after a SIGKILL tore the last
    line, cannot crash the viewer. *)

type state
(** Accumulated view of everything tailed so far. *)

val create_state : unit -> state

val feed_line : state -> string -> unit
(** Fold one complete line into the state.  Blank lines are ignored;
    non-JSON, truncated JSON and objects without an ["event"] field
    are counted as skipped; nothing raises.  Lines decode through
    {!Trace_export.event_of_line}, so the viewer and
    {!Trace_export.read_events} agree on every line. *)

val events : state -> int
(** Events successfully folded in. *)

val skipped : state -> int
(** Lines that did not parse as events. *)

val heartbeats : state -> int
(** [progress.heartbeat] events seen. *)

val finished : state -> bool
(** Whether a [run.summary] event has been seen — the recording is
    complete and a [top] loop may stop polling. *)

val spans : state -> (string * Histogram.t) list
(** Per span name (a rollup path's last segment), sorted by name: the
    closes' durations in ns, summed over every [span.rollup] tailed so
    far.  For a recording drained after its last close, counts and
    quantiles equal {!Span.snapshot}'s. *)

(** {1 Incremental file tailing} *)

type tail

val open_tail : string -> tail
(** Start tailing [path] from offset 0.  The file need not exist yet —
    {!poll} just reports no progress until it does. *)

val retarget : tail -> string -> unit
(** Switch the tail to a sibling path, keeping the read offset — for
    following an [Atomic_io] stream across its [.partial] → final
    commit rename (the bytes are identical, only the name changes). *)

val poll : tail -> state -> int
(** Read whatever the file grew since the last poll, feed every
    complete line into [state], and return how many lines were fed.
    A missing file yields 0; a file that shrank (a fresh run replaced
    it) restarts the tail from offset 0. *)

(** {1 Rendering} *)

val render : ?width:int -> state -> source:string -> string
(** One terminal frame (plain text, trailing newline per line).
    [source] is the path label shown in the header. *)
