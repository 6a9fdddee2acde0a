(** Stdlib-only domain pool for data-parallel reductions.

    The exact expansion measures enumerate an exponential combination space
    and the radio engine gathers dense rounds over a flat array; this module
    lets both shard their work over OCaml 5 domains with nothing beyond
    [Domain] and [Atomic] — no domainslib dependency.

    {2 Execution model}

    A call splits its work into tasks: contiguous index slices for
    {!parallel_reduce_ranges}, weight-split work units for
    {!parallel_reduce_weighted}. Worker slots (the caller plus up to
    [jobs - 1] helper domains) claim tasks by a single
    [Atomic.fetch_and_add] on a shared cursor — cheap dynamic load
    balancing for irregular work. Per-task results are stored into a slot
    array and finally folded {e in task order} by the calling domain.

    The helpers are a persistent crew: each is spawned the first time a
    call needs it, the crew grows to the largest [jobs - 1] requested and
    never shrinks, and between calls every helper is parked (blocked on a
    condition variable, not spinning). A call wakes the helpers it needs,
    runs slot 0 itself and waits until they report done, so a round-by-
    round caller such as the radio engine pays a wake-up per call rather
    than [jobs - 1] domain spawns and joins. One call owns the crew at a
    time. A call that finds it owned — a [map] that itself calls the pool,
    or a call from another domain — runs every task on its own domain; so
    does a call made after the runtime refused a spawn, with whatever
    helpers exist. By the determinism contract below the answer is the
    same in every case.

    {2 Determinism}

    Task boundaries depend only on the inputs (never on [jobs] or on
    scheduling), and the final fold walks tasks in index order, so the
    result is a deterministic function of the inputs whenever [combine] is
    associative with [init] as a neutral element. Callers that need a
    canonical witness under ties (e.g. min-with-lexicographic-tiebreak)
    get scheduling-independent answers at any job count, including
    [jobs = 1].

    Exceptions raised by [map]/[combine] in any worker cancel the
    remaining tasks and are re-raised in the calling domain.

    {2 Instrumentation}

    While [Wx_obs.Metrics] is enabled, every run feeds per-domain-sharded
    timers and counters: [pool.chunk] (task latency), [pool.claim_wait]
    (gap between a worker finishing one task and claiming the next),
    [pool.join_wait] (caller-side wait for stragglers after its own queue
    ran dry — the load-imbalance signal), plus [pool.runs],
    [pool.runs_seq], [pool.chunks], [pool.claims_empty], the [pool.jobs]
    gauge, and [pool.domains_spawned] — helper domains actually spawned:
    at most the largest [jobs - 1] ever requested, however many calls run.
    Weighted runs additionally count [pool.runs_weighted] and
    [pool.units_split] (extra work units the splitter created beyond one
    per index).
    While [Wx_obs.Trace_export] is enabled, each task additionally becomes
    a Chrome-trace slice on the track of the worker slot that ran it
    (tid 0 = calling domain, tid [i] = crew helper [i]), with
    [worker]/[join]/[parallel_reduce] envelope slices and a
    [pool.active_workers] counter track that steps down at each worker
    finish; [join] is the caller's wait for its helpers. Per-run
    instruments cover only the slots that ran: a call left to its caller
    reports one slot. Helpers credit their own per-run minor words to
    [Wx_obs.Memgc], so a caller's allocation reading includes the work its
    helpers did. With both systems off the hot loop performs no clock
    reads (assertable via [Wx_obs.Clock.read_count]). *)

type util = {
  u_runs : int;  (** instrumented parallel runs accumulated *)
  u_capacity_ns : int;
      (** run span times the slots that ran, summed over all instrumented
          runs (a sequential run counts one slot) *)
  u_busy_ns : int;  (** time inside tasks, summed over all slots and runs *)
  u_idle_tail_ns : int;
      (** last worker finish minus first, summed over parallel runs *)
}

val util : unit -> util
(** Snapshot of the cross-run utilization total (all zeroes if no
    instrumented run happened since {!reset_util}). *)

val reset_util : unit -> unit
(** Clear the cross-run utilization total. Call between parallel
    sections, like [Metrics.reset]. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count], clamped to [1, 128]. *)

val default_jobs : unit -> int
(** The pool-wide default parallelism: the last value passed to
    {!set_default_jobs} if any, else the [WX_JOBS] environment variable if
    set to a positive integer, else {!recommended_jobs}. *)

val set_default_jobs : int -> unit
(** Override the default ([--jobs] plumbing). Raises [Invalid_argument] on
    non-positive values; clamped to 128 (the runtime's domain ceiling). *)

val parallel_reduce_ranges :
  ?jobs:int ->
  ?range:int ->
  n:int ->
  init:'a ->
  map:(lo:int -> hi:int -> 'a) ->
  combine:('a -> 'a -> 'a) ->
  unit ->
  'a
(** [parallel_reduce_ranges ~n ~init ~map ~combine ()] cuts the index
    space [0, n) into contiguous slices of [range] (default 16384) indices,
    reduces each slice [lo, hi) with [map ~lo ~hi] on [jobs] domains
    (default {!default_jobs}) and folds the per-slice results with
    [combine] from [init] in slice order. [map] walks the slice itself —
    no per-index closure call, which is what a CSR round scan needs to
    stay allocation-free; [~range:1] makes every index its own task.
    Requires [combine] associative and [init] neutral for a deterministic
    result; see the module preamble. *)

val parallel_reduce_weighted :
  ?jobs:int ->
  n:int ->
  weight:(int -> float) ->
  init:'a ->
  map:(int -> part:int -> parts:int -> 'a) ->
  combine:('a -> 'a -> 'a) ->
  unit ->
  'a
(** [parallel_reduce_weighted ~n ~weight ~init ~map ~combine ()] reduces
    over indices [0, n), splitting each index [i] into
    [parts_i = ceil (weight i / target)] work units, where [target] is the
    total weight divided by [8 * jobs] and [parts_i] is capped at
    [8 * jobs]. [map i ~part ~parts] computes part [part] of [0..parts-1]
    of index [i]'s reduction; the caller decides how a part maps onto its
    work (and must cover index [i] exactly once across its parts). Units
    are claimed heaviest-first off the shared cursor, but results are
    combined in [(index, part)] order, so the answer is bit-identical to a
    sequential run whenever [combine] is associative with [init] neutral —
    scheduling, job count and claim order are unobservable. [weight] must
    return non-negative finite floats; it is called once per index before
    the run. *)
