(** GC telemetry as [Gc.quick_stat] deltas.

    [Gc.quick_stat] reads the runtime's accumulators without forcing a
    collection.  It sums every domain's sampled stats (walking every
    domain slot, about a microsecond on OCaml 5.1), so it measures the
    whole process: heartbeats carry windowed deltas and the final
    [run.summary] event carries {!since_start} — the run's total
    allocation pressure — under the ["gc"] key.  {!Span} does not use
    it: a span reads its own domain's counters. *)

type snapshot = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  heap_words : int;
}

val capture : unit -> snapshot

val start : snapshot
(** Snapshot taken when the library initialized (process baseline). *)

type delta = snapshot

val diff : snapshot -> snapshot -> delta
(** [diff before after]: counter fields subtract; [heap_words] is a
    level, not a counter, so the delta reports [after]'s level. *)

val since : snapshot -> delta
val since_start : unit -> delta

val to_fields : delta -> (string * Json.t) list
val to_json : delta -> Json.t

val pp_line : out_channel -> delta -> unit
(** One human-readable ["gc: ..."] line (the [--stats] rendering). *)
