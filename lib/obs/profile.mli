(** Call-path performance attribution on top of {!Span}.

    Every domain keeps a stack of its open spans.  {!Span.enter} pushes
    a frame whose path is the parent's path plus the span name
    ([";"]-joined, flamegraph folded-stack style); {!Span.exit} closes
    it, attributing {e self}-time (wall minus the wall of its direct
    children) and {e self}-allocation (minor words minus the children's)
    to the full path.  Because a parent accumulates each child's exact
    recorded integers, self values telescope: summing self-time over a
    well-nested tree reproduces the root's recorded wall to the
    nanosecond — which is why the folded per-name totals can be pinned
    {e equal} to the per-name {!Span} totals, not merely close.

    The path table is the one span table.  Each path's cell also keeps
    the closes' inclusive wall time (total and max), minor and major
    words, and a log-bucket {!Histogram} of durations; {!Span.snapshot}
    is the per-name rollup of those cells ({!closes_by_name}).  Every
    span close is booked once, here, and reaches a report only as part
    of a [span.rollup] delta (below).

    Accumulation is sharded per domain ({!Metrics}-style 8-way
    [Domain.self] indexing) and the stacks live in domain-local
    storage, so {!Bbng_core.Parallel} workers profile without
    contending.  Out-of-order or double closes never corrupt a stack:
    frames popped over are detached and still record to their (already
    fixed) path when their own close arrives.

    Disabled by default.  {!set_enabled} and {!Span.set_enabled} set
    the same flag, and {!reset_all} and {!Span.reset_all} clear the
    same table. *)

type stat = { count : int; self_ns : int; self_minor_words : float }
(** [count]: closes recorded at this exact path; [self_ns] /
    [self_minor_words]: wall time and minor allocation attributed to
    the path itself, excluding direct children. *)

val enabled : unit -> bool
(** The one span/profile enable flag ({!Span.enabled} reads it too). *)

val set_enabled : bool -> unit

type token
(** One open frame.  Produced by {!enter}, consumed by {!close};
    {!Span} threads it through its handles (and checks the enable flag
    before opening one). *)

val enter : string -> token
(** Push a frame for [name] on the calling domain's stack.  The frame's
    path is [<parent path>;name] ([name] alone at depth 0, or
    [<base>;name] under {!with_root}). *)

val close : token -> wall_ns:int -> minor_words:int -> major_words:int -> unit
(** Record the close at the frame's path — its self values ([wall_ns]
    minus accumulated child wall; likewise minor words) and its
    inclusive [wall_ns] (into the total, max and latency histogram),
    [minor_words] and [major_words] — pop it, and charge [wall_ns] /
    [minor_words] to the new top as child totals.  Closing
    out of order detaches the frames opened above (their own close
    still records, without touching the stack); closing from a
    different domain, or a frame already popped over, only records. *)

val current_path : unit -> string
(** The calling domain's current open path ([""] when the stack is
    empty and no root is installed).  {!Bbng_core.Parallel} captures
    this before spawning workers. *)

val with_root : string -> (unit -> 'a) -> 'a
(** [with_root base f] runs [f] with an empty stack whose depth-0
    frames are rooted under [base] — how a spawned worker's spans stay
    attributed beneath the caller's call path.  The previous stack is
    restored afterwards; frames [f] leaked are detached. *)

val stack_depth : unit -> int
(** Open frames on the calling domain's stack (0 when balanced). *)

val snapshot : unit -> (string * stat) list
(** All recorded paths merged across shards, sorted by path. *)

type closes = {
  closes : int;
  wall_ns : int;  (** inclusive: children's time included *)
  max_ns : int;
  minor_words : float;
  major_words : float;
  durations : Histogram.t;  (** one sample per close, in ns *)
}

val last_segment : string -> string
(** The span name a path ends in: ["a;b;c"] → ["c"]. *)

val closes_by_name : unit -> (string * closes) list
(** The path table rolled up by each path's last segment (the span
    name), merged across shards and sorted by name: counts, totals and
    words sum, max takes the max, durations merge.  These are exactly
    the closes recorded under each name — what {!Span.snapshot}
    reports. *)

val name_totals : (string * stat) list -> (string * stat) list
(** Per-name rollup of a {!snapshot}: a name's [self_ns] /
    [self_minor_words] sum over every path occurrence (so recursion
    counts once per occurrence, matching {!closes_by_name}), and its
    [count] is the closes — paths ending in the name.  For well-nested
    runs this equals the {!Span.snapshot} totals exactly. *)

type flavor = Wall_ns | Minor_words

val folded_lines : flavor -> (string * stat) list -> string list
(** flamegraph.pl / speedscope folded-stack lines: ["a;b;c VALUE"],
    where VALUE is self nanoseconds or self minor words. *)

val alloc_path : string -> string
(** ["x.folded"] → ["x.alloc.folded"] — where {!write_folded} puts the
    allocation flavor. *)

val write_folded : string -> unit
(** Write the current snapshot as folded stacks: wall-ns flavor to the
    given path and minor-words flavor to {!alloc_path} of it, both
    through {!Atomic_io} (a crash mid-write leaves no torn [.folded]).
    Fault probe: [profile.export]. *)

(** {1 [span.rollup] events}

    Span closes emit nothing.  Each path cell remembers what it last
    reported, and {!Sink} drains the difference — one [span.rollup]
    event per path that booked a close since the previous drain —
    immediately before it writes a milestone event ([run.summary],
    [progress.heartbeat], [dynamics.*]) and whenever it flushes:

    {v {"event":"span.rollup","ts_us":_,"path":"a;b","count":_,
    "self_ns":_,"self_minor_w":_,"wall_ns":_,"max_ns":_,"minor_w":_,
    "major_w":_,"buckets":[[i,c],...]} v}

    Every field is a sum over the window since the previous drain,
    except [max_ns], the window's largest close.  [buckets] lists the
    occupied log2 duration buckets (ns, {!Histogram.bucket_bounds}) as
    [[index, count]] pairs.  Paths merge across the domain shards.  A
    reader therefore folds rollups by adding (and taking the max of
    [max_ns]), so a [.partial] prefix, a resumed run or two
    concatenated recordings all fold correctly.  A report's size is
    O(paths × milestones), not O(closes). *)

val drain_rollups : unit -> (string * Json.t) list list
(** The pending deltas, one field list per changed path (sorted by
    path, without ["event"] and ["ts_us"], which {!Sink} adds), and
    mark them reported.  Only {!Sink} calls this; [Profile] does not
    depend on [Sink]. *)

val read_rollup : Json.t -> (string * stat * closes) option
(** A [span.rollup] event read back: its path, the self values it
    adds at that path, and the inclusive closes it adds (the duration
    histogram rebuilt from its buckets with {!Histogram.of_buckets}).
    [None] for any other event. *)

val of_events : Json.t list -> (string * stat) list
(** Fold the [span.rollup] events of a recording (a [--report] file
    read by {!Trace_export.read_events}) by path.  Returns the same
    shape as {!snapshot}; a recording whose last drain followed its
    last close folds to exactly the live {!snapshot}, so [bbng_cli
    flame] of a report equals the run's [--profile] output. *)

val top : ?limit:int -> (string * stat) list -> (string * stat) list
(** The [limit] (default 10) hottest paths by self-time, descending. *)

val reset_all : unit -> unit
