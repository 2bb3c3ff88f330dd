(** Robust statistics for trend gating over recorded bench runs.

    [bench --trend] compares the latest run of each benchmark against
    the median of its recorded history, with a spread estimated by the
    median absolute deviation (MAD): both are insensitive to the odd
    outlier run that a mean/stddev gate would either absorb into the
    baseline or false-positive on.  [bbng_cli runs diff] applies the
    same gate to a one-point history. *)

val median : float list -> float option
(** Sample median ([None] on an empty list; mean of the middle pair on
    even lengths). *)

val mad : float list -> float option
(** Median absolute deviation from the median.  [1.4826 *. mad] is a
    robust stand-in for the standard deviation. *)

type trend = Regressed | Improved | Steady

val threshold_pct : float
(** The default percentage term of the gate: 25. *)

val floor : metric:string -> float
(** The absolute floor of the gate for a metric name: 100 for names
    ending in [ns_per_run], 0 for every other metric.  The rule reads
    the suffix, so [census.*] or [dynamics.*] metrics never inherit the
    timing floor. *)

val classify :
  ?threshold_pct:float ->
  metric:string ->
  history:float list ->
  float ->
  trend option
(** [classify ~metric ~history latest] flags [latest] against the
    history's median when it falls outside
    [max (3 * 1.4826 * mad) (threshold_pct%% of median) (floor ~metric)]
    — the MAD term adapts to per-bench noise, the percentage (default
    {!threshold_pct}) covers MAD-0 histories, and the floor silences
    sub-100ns timings.  [None] when the history is empty. *)

val sigma_score : history:float list -> float -> float option
(** [(latest - median) / (1.4826 * mad)] — how many robust standard
    deviations the latest run sits from its history ([None] when the
    MAD is zero or the history empty). *)
