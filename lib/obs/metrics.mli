(** Process-wide metrics registry: counters, gauges, timers and log-scale
    histograms with p50/p90/p99 estimates.

    Zero-cost-when-disabled: handles are registered once (module init) and
    every hot-path operation is a single flag load when the registry is off —
    no allocation, no formatting, no clock read. Enable with {!enable} or by
    setting [WX_METRICS=1] in the environment.

    Domain-safe: counters and gauges are atomics (concurrent {!incr}/{!add}
    from Wx_par worker domains never lose updates), and each histogram keeps
    a lock-free per-domain shard, merged when read ({!snapshot},
    {!quantile}, {!render}).

    Concurrent-read contract (the [Expose] exposition domain scrapes while
    the pool is hot): a snapshot raced against live workers is memory-safe
    and internally consistent — histogram counts are derived from the merged
    bucket mass the quantile walk sees, and min/max that have visibly not
    caught up with an in-flight observation are re-derived from the occupied
    bucket range — but it may trail the writers by a few observations.
    Exact totals still require reading after parallel sections have
    joined, which is when the bench runner takes its per-experiment
    snapshots. *)

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

type counter
type gauge
type histogram
type timer

(** Registration (idempotent per name; cheap, but keep it off hot paths —
    the intended pattern is one module-level handle per instrument). *)

val counter : string -> counter
val gauge : string -> gauge
val histogram : string -> histogram

val timer : string -> timer
(** A timer is a histogram of nanosecond durations named ["<name>.ns"]. *)

(** Hot-path operations — all no-ops while disabled. *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit

val observe : histogram -> float -> unit
(** Record a positive value into its power-of-two bucket. *)

val touch_timer : timer -> unit
(** Create the calling domain's shard of the timer's histogram without
    recording an observation, so later observes from this domain allocate
    nothing. Pool workers call this at entry to keep per-run allocation
    counts deterministic under dynamic task stealing. No-op while
    disabled. *)

val start : unit -> int
(** Raw monotonic stamp for manual timing; returns 0 while disabled. *)

val stop : timer -> int -> unit
(** Record the ns elapsed since [start]'s stamp; no-op on a 0 stamp. *)

val observe_ns : timer -> int -> unit
(** Record an already-measured duration in nanoseconds (clamped to 0); for
    callers sharing raw clock reads with the trace exporter. *)

val time : timer -> (unit -> 'a) -> 'a
(** Time a closure (exception-safe); calls it untimed while disabled. *)

(** Reading. *)

val counter_value : counter -> int
(** The counter's running total since the last {!reset}. Cheap (one atomic
    load) and valid whether or not the registry is enabled — the work-unit
    layer reads deltas mid-run where a {!snapshot} would be too heavy. *)

val quantile : histogram -> float -> float
(** Bucket-interpolated quantile estimate ([q] in [0,1]); NaN when empty.
    Accurate to the power-of-two bucket, clamped to the observed range. *)

val reset : unit -> unit
(** Zero every instrument's state, keeping registrations. *)

val snapshot : unit -> Json.t
(** JSON object [{counters; gauges; histograms; timers}] restricted to
    instruments that recorded something. *)

val render : unit -> string
(** Human-readable snapshot, one line per instrument. *)
