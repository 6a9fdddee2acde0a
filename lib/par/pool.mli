(** Stdlib-only domain pool for data-parallel reductions.

    The exact expansion measures enumerate an exponential combination space;
    this module lets them shard that space over OCaml 5 domains with nothing
    beyond [Domain] and [Atomic] — no domainslib dependency.

    {2 Execution model}

    A call to {!parallel_reduce} splits the index range [0, n) into
    fixed-size chunks. Worker slots (the caller plus up to [jobs - 1]
    helper domains) claim chunks by a single [Atomic.fetch_and_add] on a
    shared cursor — cheap dynamic load balancing for irregular per-index
    work. Each chunk is folded locally with [combine]; the per-chunk
    results are stored into a slot array and finally folded {e in chunk
    order} by the calling domain.

    The helpers are a persistent crew: each is spawned the first time a
    call needs it, the crew grows to the largest [jobs - 1] requested and
    never shrinks, and between calls every helper is parked (blocked on a
    condition variable, not spinning). A call wakes the helpers it needs,
    runs slot 0 itself and waits until they report done, so a round-by-
    round caller such as the radio engine pays a wake-up per call rather
    than [jobs - 1] domain spawns and joins. One call owns the crew at a
    time. A call that finds it owned — a [map] that itself calls the pool,
    or a call from another domain — runs every chunk on its own domain; so
    does a call made after the runtime refused a spawn, with whatever
    helpers exist. By the determinism contract below the answer is the
    same in every case.

    {!parallel_reduce_weighted} is the work-stealing variant for loads the
    fixed-size splitter cannot balance: the caller supplies a per-index
    weight estimate, oversized indices are split into finer work units
    claimed off the same atomic cursor, and the heaviest units are handed
    out first (LPT order) so light units backfill the idle tail.

    {2 Determinism}

    Because chunk boundaries depend only on [n] and [chunk] (never on
    [jobs] or on scheduling), and the final fold walks chunks in index
    order, the result is a deterministic function of the inputs whenever
    [combine] is associative with [init] as a neutral element. Callers that
    need a canonical witness under ties (e.g. min-with-lexicographic-
    tiebreak) get scheduling-independent answers at any job count,
    including [jobs = 1].

    Exceptions raised by [map]/[combine] in any worker cancel the
    remaining chunks and are re-raised in the calling domain.

    {2 Instrumentation}

    While [Wx_obs.Metrics] is enabled, every run feeds per-domain-sharded
    timers and counters: [pool.chunk] (chunk latency), [pool.claim_wait]
    (gap between a worker finishing one chunk and claiming the next),
    [pool.join_wait] (caller-side wait for stragglers after its own queue
    ran dry — the load-imbalance signal), plus [pool.runs], [pool.chunks],
    [pool.claims_empty], the [pool.jobs] gauge, and [pool.domains_spawned]
    — helper domains actually spawned: at most the largest [jobs - 1]
    ever requested, however many calls run.
    Weighted runs additionally count [pool.runs_weighted] and
    [pool.units_split] (extra work units the splitter created beyond one
    per index).
    While [Wx_obs.Trace_export] is enabled, each chunk additionally becomes
    a Chrome-trace slice on the track of the worker slot that ran it
    (tid 0 = calling domain, tid [i] = crew helper [i]), with
    [worker]/[join]/[parallel_reduce] envelope slices; [join] is the
    caller's wait for its helpers. Per-run instruments cover only the
    slots that ran: a call left to its caller reports one slot. Helpers
    credit their own per-run minor words to [Wx_obs.Memgc], so a
    caller's allocation reading includes the work its helpers did. With
    both systems off the hot loop performs no clock reads (assertable via
    [Wx_obs.Clock.read_count]).

    {2 Utilization}

    Instrumented runs additionally attribute busy/idle time per worker
    slot: busy nanoseconds (time inside chunks, on the stamps the chunk
    timer already takes), chunks claimed, slot span (worker start to
    finish) and the per-run {e idle tail} — last worker finish minus first
    worker finish, the straggler cost of skewed sharding. Per-run numbers
    feed the [pool.util.*] instruments and a [pool.active_workers] counter
    track in the exported trace; cross-run sums accumulate in a global
    summary read by {!util} and cleared by {!reset_util}, which the bench
    runner brackets around each experiment to produce the [wx-bench/4]
    [util] block. *)

type slot_util = {
  s_busy_ns : int;  (** time inside chunks on this worker slot *)
  s_span_ns : int;  (** slot start-to-finish span, summed over runs *)
  s_chunks : int;  (** chunks claimed by this slot *)
}

type util = {
  u_runs : int;  (** instrumented parallel runs accumulated *)
  u_seq_runs : int;  (** instrumented sequential (jobs=1) runs *)
  u_capacity_ns : int;  (** [jobs * run_span] summed over runs *)
  u_busy_ns : int;  (** busy time summed over all slots and runs *)
  u_idle_tail_ns : int;  (** idle tails summed over parallel runs *)
  u_max_idle_tail_ns : int;  (** worst single-run idle tail *)
  u_slots : slot_util array;  (** indexed by worker tid (0 = caller) *)
}

val util : unit -> util
(** Snapshot of the cross-run utilization accumulator (zeroes and an empty
    slot array if no instrumented run happened since {!reset_util}). *)

val reset_util : unit -> unit
(** Clear the cross-run utilization accumulator. Call between
    parallel sections, like [Metrics.reset]. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count], clamped to [1, 128]. *)

val default_jobs : unit -> int
(** The pool-wide default parallelism: the last value passed to
    {!set_default_jobs} if any, else the [WX_JOBS] environment variable if
    set to a positive integer, else {!recommended_jobs}. *)

val set_default_jobs : int -> unit
(** Override the default ([--jobs] plumbing). Raises [Invalid_argument] on
    non-positive values; clamped to 128 (the runtime's domain ceiling). *)

val parallel_reduce :
  ?jobs:int ->
  ?chunk:int ->
  n:int ->
  init:'a ->
  map:(int -> 'a) ->
  combine:('a -> 'a -> 'a) ->
  unit ->
  'a
(** [parallel_reduce ~n ~init ~map ~combine ()] is
    [fold_left combine init (List.map map [0; ...; n-1])] computed on
    [jobs] domains (default {!default_jobs}) in chunks of [chunk]
    (default 1) indices. Requires [combine] associative and [init]
    neutral for a deterministic result; see the module preamble. *)

val parallel_reduce_weighted :
  ?jobs:int ->
  ?oversubscribe:int ->
  n:int ->
  weight:(int -> float) ->
  init:'a ->
  map:(int -> part:int -> parts:int -> 'a) ->
  combine:('a -> 'a -> 'a) ->
  unit ->
  'a
(** [parallel_reduce_weighted ~n ~weight ~init ~map ~combine ()] reduces
    over indices [0, n) like {!parallel_reduce}, but splits each index [i]
    into [parts_i = ceil (weight i / target)] work units, where [target]
    is the total weight divided by [jobs * oversubscribe] (default
    oversubscribe 8) and [parts_i] is capped at [jobs * oversubscribe].
    [map i ~part ~parts] computes part [part] of [0..parts-1] of index
    [i]'s reduction; the caller decides how a part maps onto its work (and
    must cover index [i] exactly once across its parts). Units are claimed
    heaviest-first off the shared cursor, but results are combined in
    [(index, part)] order, so the answer is bit-identical to a sequential
    run whenever [combine] is associative with [init] neutral —
    scheduling, job count and claim order are unobservable. [weight] must
    return non-negative finite floats; it is called once per index before
    the run. *)

val parallel_reduce_ranges :
  ?jobs:int ->
  ?range:int ->
  n:int ->
  init:'a ->
  map:(lo:int -> hi:int -> 'a) ->
  combine:('a -> 'a -> 'a) ->
  unit ->
  'a
(** Range-sharded variant for flat-array kernels: the index space [0, n)
    is cut into contiguous slices of [range] (default 16384) indices and
    [map ~lo ~hi] reduces one whole slice [lo, hi) itself — no per-index
    closure call, which is what a CSR round scan needs to stay
    allocation-free. Slice boundaries depend only on [n] and [range]
    (never on [jobs] or scheduling) and per-slice results are combined in
    slice order, so with [combine] associative and [init] neutral the
    result is bit-identical at any job count. *)

val parallel_for : ?jobs:int -> ?chunk:int -> n:int -> (int -> unit) -> unit
(** [parallel_for ~n f] runs [f i] for [i] in [0, n) across the pool.
    Iterations must be independent; completion of all iterations
    happens-before the return. *)
