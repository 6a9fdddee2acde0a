(* Domain pool: index-range stealing over stdlib Domain + Atomic, run by a
   persistent crew of helper domains.

   Work distribution is dynamic (domains race on an atomic task cursor),
   but the combine tree is static: per-task results land in a slot array
   and the calling domain folds them in task order. Determinism therefore
   never depends on which domain ran which task, nor on how many domains
   took part.

   The crew: helper domains are spawned on first use, grow to the largest
   [jobs - 1] any call asked for, and park on a condition variable between
   calls, so a parallel call costs one wake-up and one wait instead of
   [jobs - 1] domain spawns and joins. One call owns the crew at a time; a
   call that finds it taken (a task that itself calls the pool, or a call
   from another domain) runs every task on its own domain.

   Instrumentation: while Wx_obs metrics or tracing is on, every task's
   latency lands in a per-domain histogram shard, the gaps between tasks
   feed a claim-wait timer, and each task becomes a Chrome-trace slice on
   the track of the worker slot that ran it (tid 0 = the calling domain,
   tids 1.. = crew helpers) — so load imbalance across --jobs settings is
   visible both as p99 numbers and in chrome://tracing. All of it is gated
   on one boolean computed per call; with both systems off the hot loop is
   untouched. *)

module Metrics = Wx_obs.Metrics
module Trace_export = Wx_obs.Trace_export
module Memgc = Wx_obs.Memgc
module Clock = Wx_obs.Clock
module Json = Wx_obs.Json

let max_domains = 128

(* Pool instruments, registered once. Histogram-backed timers shard per
   observing domain inside Metrics, so concurrent workers never contend. *)
let runs_c = Metrics.counter "pool.runs"
let seq_runs_c = Metrics.counter "pool.runs_seq"
let weighted_runs_c = Metrics.counter "pool.runs_weighted"
let spawned_c = Metrics.counter "pool.domains_spawned"
let chunks_c = Metrics.counter "pool.chunks"
let units_split_c = Metrics.counter "pool.units_split"
let empty_claims_c = Metrics.counter "pool.claims_empty"
let jobs_g = Metrics.gauge "pool.jobs"
let chunk_t = Metrics.timer "pool.chunk"
let claim_t = Metrics.timer "pool.claim_wait"
let join_t = Metrics.timer "pool.join_wait"

(* ---- cross-run utilization accounting ----

   The bench runner and e2ebench want one utilization total per
   experiment, and one call is too fine a grain (an exact measure makes
   one call, a sampled measure several). So every instrumented run adds
   its numbers to this process-global total under a mutex (cold path: once
   per run, not per task); [reset_util]/[util] bracket an experiment the
   same way [Metrics.reset]/[snapshot] do. *)

type util = { u_runs : int; u_capacity_ns : int; u_busy_ns : int; u_idle_tail_ns : int }

let util_zero = { u_runs = 0; u_capacity_ns = 0; u_busy_ns = 0; u_idle_tail_ns = 0 }
let util_lock = Mutex.create ()
let util_total = ref util_zero
let reset_util () = Mutex.protect util_lock (fun () -> util_total := util_zero)
let util () = Mutex.protect util_lock (fun () -> !util_total)

let util_record ~runs ~capacity ~busy ~idle_tail =
  Mutex.protect util_lock (fun () ->
      let u = !util_total in
      util_total :=
        {
          u_runs = u.u_runs + runs;
          u_capacity_ns = u.u_capacity_ns + capacity;
          u_busy_ns = u.u_busy_ns + busy;
          u_idle_tail_ns = u.u_idle_tail_ns + idle_tail;
        })

let recommended_jobs () = max 1 (min max_domains (Domain.recommended_domain_count ()))

let env_jobs () =
  match Sys.getenv_opt "WX_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some (min n max_domains)
      | _ -> None)

(* 0 = "unset": fall through to WX_JOBS, then the runtime's recommendation.
   An Atomic so --jobs plumbing is safe even if set from a worker. *)
let default = Atomic.make 0

let default_jobs () =
  match Atomic.get default with
  | 0 -> ( match env_jobs () with Some n -> n | None -> recommended_jobs ())
  | n -> n

let set_default_jobs n =
  if n < 1 then invalid_arg "Pool.set_default_jobs: jobs must be >= 1";
  Atomic.set default (min n max_domains)

let resolve_jobs jobs =
  match jobs with
  | Some j when j >= 1 -> min j max_domains
  | Some _ -> invalid_arg "Pool: jobs must be >= 1"
  | None -> default_jobs ()

(* ---- the crew ----

   Helper [i] (1-based) runs worker slot [i]. It parks on [wake] until the
   generation moves past the last one it saw, runs the published [job] if
   the new generation engaged it, then decrements [pending] and signals
   [finished]. [busy] admits one owner, which alone reads and writes
   [size] and [capped] and publishes generations; every other field is
   read and written under [lock]. A generation cannot be superseded while
   an engaged helper is still on it (the owner waits for [pending = 0]
   before releasing [busy]), so no engaged helper can miss its
   generation. Parked helpers block in [Condition.wait]: an idle crew
   costs no CPU. *)

type crew = {
  lock : Mutex.t;
  wake : Condition.t;
  finished : Condition.t;
  mutable size : int; (* helpers spawned so far *)
  mutable capped : bool; (* a spawn failed: the runtime is out of domains *)
  mutable generation : int;
  mutable engaged : int; (* helpers 1..engaged run the current generation *)
  mutable pending : int; (* engaged helpers not yet done *)
  mutable job : int -> unit; (* must not raise *)
}

let crew =
  {
    lock = Mutex.create ();
    wake = Condition.create ();
    finished = Condition.create ();
    size = 0;
    capped = false;
    generation = 0;
    engaged = 0;
    pending = 0;
    job = ignore;
  }

let busy = Atomic.make false

(* Called with [crew.lock] held; never returns. *)
let rec park slot seen =
  while crew.generation = seen do
    Condition.wait crew.wake crew.lock
  done;
  let generation = crew.generation in
  if slot <= crew.engaged then begin
    let job = crew.job in
    Mutex.unlock crew.lock;
    job slot;
    Mutex.lock crew.lock;
    crew.pending <- crew.pending - 1;
    if crew.pending = 0 then Condition.signal crew.finished
  end;
  park slot generation

(* Owner only. The generation a helper starts from is read here, before
   the domain runs: reading it inside the new domain could see the very
   generation it is being spawned for and sleep through it. *)
let grow want =
  Mutex.lock crew.lock;
  let seen = crew.generation in
  Mutex.unlock crew.lock;
  while crew.size < want && not crew.capped do
    let slot = crew.size + 1 in
    match
      Domain.spawn (fun () ->
          Mutex.lock crew.lock;
          park slot seen)
    with
    | (_ : unit Domain.t) ->
        crew.size <- slot;
        Metrics.incr spawned_c
    | exception Failure _ -> crew.capped <- true
  done

(* Publish [job] to up to [helpers] helpers and return how many took it.
   0 means the caller runs alone: the crew is owned by another call, or no
   helper could be spawned. A positive answer must be paired with
   [await]. *)
let engage ~helpers job =
  if helpers <= 0 || not (Atomic.compare_and_set busy false true) then 0
  else begin
    if crew.size < helpers then grow helpers;
    let k = min helpers crew.size in
    if k = 0 then Atomic.set busy false
    else begin
      Mutex.lock crew.lock;
      crew.job <- job;
      crew.engaged <- k;
      crew.pending <- k;
      crew.generation <- crew.generation + 1;
      Condition.broadcast crew.wake;
      Mutex.unlock crew.lock
    end;
    k
  end

(* Wait for the [k] helpers [engage] returned, then release the crew. The
   lock hand-off publishes every helper write to the caller. *)
let await k =
  if k > 0 then begin
    Mutex.lock crew.lock;
    while crew.pending > 0 do
      Condition.wait crew.finished crew.lock
    done;
    crew.job <- ignore;
    Mutex.unlock crew.lock;
    Atomic.set busy false
  end

(* Shared instrumented core. [ntasks] tasks indexed [0, ntasks); results
   land in a slot array indexed by task id and are folded in id order, so
   determinism never depends on which domain ran which task. [order]
   permutes the {e claim} sequence only (the weighted path hands out heavy
   units first); it never affects the combine order. *)
let run_tasks ~jobs ~ntasks ~order ~task ~init ~combine ~trace_args =
  let jobs = min jobs ntasks in
  (* One flag for the whole call: observe/slice below self-gate on their
     own system's flag, so a trace-only run skips histogram writes and a
     metrics-only run skips slice pushes — but an uninstrumented run pays
     for neither clock reads nor the checks inside them. *)
  let instrumented = Metrics.is_enabled () || Trace_export.is_enabled () in
  (* [memgc_on] alone obliges helpers to credit their minor words to
     Memgc's foreign accumulator at exit — Memgc.read on the caller is
     domain-local, so without that credit helper allocation would vanish
     from the bench alloc gate. Per-task trace args additionally need a
     sink, hence [mem]. With Memgc off no Gc read happens at all. *)
  let memgc_on = Memgc.is_enabled () in
  let mem = instrumented && memgc_on in
  let now () = if instrumented then Clock.now_ns () else 0 in
  (* Per-run busy time, tasks claimed and finish stamp, one slot per worker
     tid. Distinct slots are written only by their owner; the caller reads
     them after [await]. Sized by [jobs] (not ntasks), so the allocation is
     a deterministic function of the call shape — the alloc gate depends
     on that. Empty when uninstrumented: no cost, and run_task never
     touches them on that path. *)
  let busy_a = if instrumented then Array.make jobs 0 else [||] in
  let chunks_a = if instrumented then Array.make jobs 0 else [||] in
  let finish_a = if instrumented then Array.make jobs 0 else [||] in
  (* Timed wrapper shared by both paths: [tid] is the worker slot (0 =
     calling domain), [t_claim] the stamp just after the task was claimed.
     Trace/metric names keep the historical "chunk" vocabulary. *)
  let run_task ~tid ~t_claim c =
    let w0 = if mem then Memgc.own_minor_words () else 0.0 in
    let r = task c in
    if instrumented then begin
      let t_done = Clock.now_ns () in
      let dw = if mem then Memgc.own_minor_words () -. w0 else 0.0 in
      (* Busy time = time inside tasks, on the stamps already taken for the
         task timer — utilization adds no clock reads here. *)
      busy_a.(tid) <- busy_a.(tid) + (t_done - t_claim);
      chunks_a.(tid) <- chunks_a.(tid) + 1;
      Metrics.incr chunks_c;
      Metrics.observe_ns chunk_t (t_done - t_claim);
      Trace_export.slice ~tid ~name:"chunk" ~t0_ns:t_claim ~dur_ns:(t_done - t_claim)
        ~args:
          (("chunk", Json.Int c) :: (if mem then [ ("minor_words", Json.Float dw) ] else []))
        ()
    end;
    r
  in
  if jobs <= 1 then begin
    if instrumented then begin
      Metrics.incr seq_runs_c;
      Metrics.set jobs_g 1.0
    end;
    let t_seq0 = now () in
    let acc = ref init in
    for c = 0 to ntasks - 1 do
      acc := combine !acc (run_task ~tid:0 ~t_claim:(now ()) c)
    done;
    (* A sequential run adds capacity and busy time but no run and, by
       construction, no idle tail. *)
    if instrumented then
      util_record ~runs:0 ~capacity:(Clock.now_ns () - t_seq0) ~busy:busy_a.(0) ~idle_tail:0;
    !acc
  end
  else begin
    if instrumented then begin
      Metrics.incr runs_c;
      Metrics.set jobs_g (float_of_int jobs)
    end;
    let t_run0 = now () in
    let results = Array.make ntasks None in
    let cursor = Atomic.make 0 in
    let failure = Atomic.make None in
    let worker tid =
      (* Pre-create this domain's histogram shards: otherwise a worker that
         loses every task race allocates fewer shards than one that claims
         work, and total allocation would vary run to run. *)
      if instrumented then begin
        Metrics.touch_timer claim_t;
        Metrics.touch_timer chunk_t
      end;
      let t_start = now () in
      let w_start = if memgc_on then Memgc.own_minor_words () else 0.0 in
      let t_prev = ref t_start in
      let continue_ = ref true in
      while !continue_ do
        (* The cursor hands out {e claim slots}; [order] maps a slot to the
           task it carries (identity on the range path, LPT order on the
           weighted one). Results land in [results.(c)] keyed by task id,
           so the permutation is invisible to the combine. *)
        let u = Atomic.fetch_and_add cursor 1 in
        if u >= ntasks || Atomic.get failure <> None then begin
          if instrumented && u >= ntasks then Metrics.incr empty_claims_c;
          continue_ := false
        end
        else begin
          let c = match order with None -> u | Some o -> Array.unsafe_get o u in
          let t_claim = now () in
          if instrumented then Metrics.observe_ns claim_t (t_claim - !t_prev);
          match run_task ~tid ~t_claim c with
          | r ->
              results.(c) <- Some r;
              t_prev := now ()
          | exception e ->
              ignore (Atomic.compare_and_set failure None (Some e));
              continue_ := false
        end
      done;
      if instrumented then finish_a.(tid) <- Clock.now_ns ();
      (* Helpers credit their own minor-word delta for this run to Memgc's
         foreign accumulator — the caller's Memgc.read after the run
         depends on it — and that credit happens-before the [await] that
         publishes it. Round, don't truncate: a fractional delta must not
         drift the credit low. *)
      let w_delta = if memgc_on then Memgc.own_minor_words () -. w_start else 0.0 in
      if memgc_on && tid > 0 then
        Memgc.add_foreign_minor_words (int_of_float (Float.round w_delta));
      if instrumented && tid > 0 then
        let t_exit = Clock.now_ns () in
        Trace_export.slice ~tid ~name:"worker" ~t0_ns:t_start ~dur_ns:(t_exit - t_start)
          ~args:
            (("chunks", Json.Int chunks_a.(tid))
            :: ("busy_ms", Json.Float (Clock.ns_to_ms busy_a.(tid)))
            :: (if mem then [ ("minor_words", Json.Float w_delta) ] else []))
          ()
    in
    (* Helpers must report done whatever happens, or the crew wedges:
       anything [worker] lets escape becomes this run's failure. *)
    let job tid =
      match worker tid with
      | () -> ()
      | exception e -> ignore (Atomic.compare_and_set failure None (Some e))
    in
    let helpers = engage ~helpers:(jobs - 1) job in
    job 0;
    let t_drain = now () in
    await helpers;
    if instrumented then begin
      (* Slots that ran: a run the busy crew left to its caller counts one
         slot, not [jobs]. [await] published the helpers' slot writes. *)
      let slots = helpers + 1 in
      let t_joined = Clock.now_ns () in
      (* Caller-side wait for stragglers after its own queue ran dry: the
         aggregate signal that tasks are too coarse for this job count. *)
      Metrics.observe_ns join_t (t_joined - t_drain);
      Trace_export.slice ~tid:0 ~name:"join" ~t0_ns:t_drain ~dur_ns:(t_joined - t_drain) ();
      Trace_export.slice ~tid:0 ~name:"parallel_reduce" ~t0_ns:t_run0
        ~dur_ns:(t_joined - t_run0) ~args:trace_args ();
      (* Idle tail: last worker finish minus first worker finish, the
         straggler cost of skewed sharding. *)
      let fins = Array.sub finish_a 0 slots in
      Array.sort compare fins;
      let idle_tail = max 0 (fins.(slots - 1) - fins.(0)) in
      (* Counter track stepping down at each worker finish: the idle tail
         renders as a staircase in chrome://tracing / wx prof. *)
      if Trace_export.is_enabled () then begin
        Trace_export.counter ~name:"pool.active_workers" ~t_ns:t_run0
          [ ("active", float_of_int slots) ];
        Array.iteri
          (fun i t ->
            Trace_export.counter ~name:"pool.active_workers" ~t_ns:t
              [ ("active", float_of_int (slots - i - 1)) ])
          fins
      end;
      util_record ~runs:1
        ~capacity:(slots * (t_joined - t_run0))
        ~busy:(Array.fold_left ( + ) 0 (Array.sub busy_a 0 slots))
        ~idle_tail
    end;
    (match Atomic.get failure with Some e -> raise e | None -> ());
    (* All tasks completed (no failure), so every slot is filled; [await]
       published the helpers' writes to this domain. *)
    let acc = ref init in
    for c = 0 to ntasks - 1 do
      match results.(c) with
      | Some r -> acc := combine !acc r
      | None -> assert false
    done;
    !acc
  end

(* The weighted splitter's oversubscription: enough units that the
   heaviest index still leaves this many claimable pieces per worker on
   average — the idle tail is one oversized trailing unit, so the split
   bounds it by [total / (jobs * oversubscribe)]. *)
let oversubscribe = 8

let parallel_reduce_weighted ?jobs ~n ~weight ~init ~map ~combine () =
  if n < 0 then invalid_arg "Pool.parallel_reduce_weighted: n must be >= 0";
  if n = 0 then init
  else begin
    let jobs = resolve_jobs jobs in
    let w =
      Array.init n (fun i ->
          let x = weight i in
          if not (x >= 0.0) then
            invalid_arg "Pool.parallel_reduce_weighted: weights must be >= 0";
          x)
    in
    let total = Array.fold_left ( +. ) 0.0 w in
    let slots = jobs * oversubscribe in
    let target = total /. float_of_int slots in
    let parts =
      Array.map
        (fun wi ->
          if target > 0.0 && wi > target then
            min slots (int_of_float (Float.ceil (wi /. target)))
          else 1)
        w
    in
    let nunits = Array.fold_left ( + ) 0 parts in
    let unit_idx = Array.make nunits 0 in
    let unit_part = Array.make nunits 0 in
    let u = ref 0 in
    for i = 0 to n - 1 do
      for p = 0 to parts.(i) - 1 do
        unit_idx.(!u) <- i;
        unit_part.(!u) <- p;
        incr u
      done
    done;
    (* LPT claim order: heaviest units are handed out first so the light
       ones backfill the tail. Stable sort keeps natural order among equal
       weights. The permutation affects only which domain runs what, never
       the combine order, so results stay bit-identical to order:None. *)
    let order = Array.init nunits (fun k -> k) in
    let unit_w k = w.(unit_idx.(k)) /. float_of_int parts.(unit_idx.(k)) in
    Array.stable_sort (fun a b -> compare (unit_w b) (unit_w a)) order;
    if Metrics.is_enabled () then begin
      Metrics.incr weighted_runs_c;
      Metrics.add units_split_c (nunits - n)
    end;
    let jobs = min jobs nunits in
    let task k = map unit_idx.(k) ~part:unit_part.(k) ~parts:parts.(unit_idx.(k)) in
    run_tasks ~jobs ~ntasks:nunits ~order:(Some order) ~task ~init ~combine
      ~trace_args:
        [ ("n", Json.Int n); ("units", Json.Int nunits); ("jobs", Json.Int jobs) ]
  end

let parallel_reduce_ranges ?jobs ?(range = 16384) ~n ~init ~map ~combine () =
  if range < 1 then invalid_arg "Pool.parallel_reduce_ranges: range must be >= 1";
  if n < 0 then invalid_arg "Pool.parallel_reduce_ranges: n must be >= 0";
  if n = 0 then init
  else begin
    let ntasks = (n + range - 1) / range in
    let jobs = min (resolve_jobs jobs) ntasks in
    (* One task = one contiguous [lo, hi) slice, handed to [map] whole:
       the round kernels want the slice bounds, not a per-index callback,
       so the inner loop lives in the caller with zero closure calls per
       index. Boundaries depend only on [n] and [range] — never on [jobs]
       or scheduling — so with an associative [combine] the result is
       bit-identical at any job count. *)
    let task c =
      let lo = c * range in
      map ~lo ~hi:(min n (lo + range))
    in
    run_tasks ~jobs ~ntasks ~order:None ~task ~init ~combine
      ~trace_args:[ ("n", Json.Int n); ("ranges", Json.Int ntasks); ("jobs", Json.Int jobs) ]
  end
