(* The Wx_par domain pool and the determinism contract of the parallel
   expansion measures: pool reductions must equal the sequential fold on
   adversarial range geometries, exact measures must report byte-identical
   values and witnesses at any job count, sampled measures must be a pure
   function of the seed, and the metrics registry must not lose updates
   under concurrent increments. *)

module Pool = Wx_par.Pool
module Measure = Wx_expansion.Measure
module Metrics = Wx_obs.Metrics
module Json = Wx_obs.Json
module Gen = Wx_graph.Gen
module Graph = Wx_graph.Graph
module Bitset = Wx_util.Bitset
module Rng = Wx_util.Rng
open Common

(* ---- pool semantics ---- *)

(* The indices of one slice, for append-into-a-list oracles. *)
let slice ~lo ~hi = List.init (hi - lo) (fun k -> lo + k)

let test_reduce_order_is_sequential () =
  (* combine = list append with [] neutral: the result is exactly the index
     sequence, so any reordering, dropped slice or double-claimed slice
     shows up verbatim. Range sizes straddle every boundary case: unit,
     non-dividing, equal to n, larger than n. Every slice must also sit on
     its fixed boundary, whatever the job count. *)
  List.iter
    (fun (n, range) ->
      let expected = List.init n Fun.id in
      List.iter
        (fun jobs ->
          (* Alcotest's assertion log is not domain-safe: workers only
             count violations, the calling domain asserts. *)
          let off_boundary = Atomic.make 0 in
          let got =
            Pool.parallel_reduce_ranges ~jobs ~range ~n ~init:[]
              ~map:(fun ~lo ~hi ->
                if lo mod range <> 0 || hi <> min n (lo + range) then Atomic.incr off_boundary;
                slice ~lo ~hi)
              ~combine:(fun a b -> a @ b) ()
          in
          let name = Printf.sprintf "n=%d range=%d jobs=%d" n range jobs in
          Alcotest.(check (list int)) name expected got;
          check_int (name ^ " slices on boundaries") 0 (Atomic.get off_boundary))
        [ 1; 2; 3; 8 ])
    [ (0, 1); (1, 1); (7, 1); (7, 3); (7, 7); (7, 100); (64, 5); (100, 1); (100, 17) ]

let sum_slice ~lo ~hi =
  let acc = ref 0 in
  for i = lo to hi - 1 do
    acc := !acc + i
  done;
  !acc

let test_reduce_matches_fold () =
  let n = 1000 in
  let expected = n * (n - 1) / 2 in
  List.iter
    (fun (jobs, range) ->
      check_int
        (Printf.sprintf "sum jobs=%d range=%d" jobs range)
        expected
        (Pool.parallel_reduce_ranges ~jobs ~range ~n ~init:0 ~map:sum_slice ~combine:( + ) ()))
    [ (1, 1); (2, 7); (8, 13); (4, 1000); (3, 999); (8, 1) ]

(* [f i] for every i in [0, n), one index per task: the pool as a parallel
   loop. *)
let parallel_iter ~jobs ~n f =
  Pool.parallel_reduce_ranges ~jobs ~range:1 ~n ~init:()
    ~map:(fun ~lo ~hi:_ -> f lo)
    ~combine:(fun () () -> ())
    ()

let test_ranges_cover_each_index_once () =
  let n = 257 in
  let hits = Array.make n 0 in
  Pool.parallel_reduce_ranges ~jobs:4 ~range:3 ~n ~init:()
    ~map:(fun ~lo ~hi ->
      for i = lo to hi - 1 do
        hits.(i) <- hits.(i) + 1
      done)
    ~combine:(fun () () -> ())
    ();
  Array.iteri (fun i h -> check_int (Printf.sprintf "index %d" i) 1 h) hits

let test_worker_exception_propagates () =
  match
    Pool.parallel_reduce_ranges ~jobs:4 ~range:1 ~n:100 ~init:0
      ~map:(fun ~lo ~hi:_ -> if lo = 57 then failwith "boom" else lo)
      ~combine:( + ) ()
  with
  | _ -> Alcotest.fail "expected the worker exception to re-raise"
  | exception Failure m -> check_true "original exception" (m = "boom")

(* ---- weighted reduction (work stealing) ---- *)

let test_weighted_reduce_order_is_sequential () =
  (* Same append-into-a-list oracle as the plain reduction, but across the
     splitting geometries: heavily skewed weights force one index into
     many units, zero weights collapse to single units, and every job
     count exercises a different split and LPT claim order.
     Each index's parts cover it exactly once, so the folded result must
     still be the exact index sequence. *)
  let weights =
    [
      ("uniform", fun _ -> 1.0);
      ("skewed", fun i -> if i = 0 then 1e6 else 1.0);
      ("geometric", fun i -> 2.0 ** float_of_int (i mod 20));
      ("zero", fun _ -> 0.0);
    ]
  in
  List.iter
    (fun (wname, weight) ->
      List.iter
        (fun jobs ->
          List.iter
            (fun n ->
              let hits = Array.make (max n 1) 0 in
              (* Alcotest's assertion log is not domain-safe: workers only
                 count violations, the calling domain asserts. *)
              let bad_parts = Atomic.make 0 in
              let got =
                Pool.parallel_reduce_weighted ~jobs ~n ~weight ~init:[]
                  ~map:(fun i ~part ~parts ->
                    if not (0 <= part && part < parts) then Atomic.incr bad_parts;
                    (* Cover index i on part 0 only: the contract says the
                       caller must cover i exactly once across its parts. *)
                    if part = 0 then begin
                      hits.(i) <- hits.(i) + 1;
                      [ i ]
                    end
                    else [])
                  ~combine:(fun a b -> a @ b) ()
              in
              check_int "part in range" 0 (Atomic.get bad_parts);
              Alcotest.(check (list int))
                (Printf.sprintf "%s n=%d jobs=%d" wname n jobs)
                (List.init n Fun.id) got;
              for i = 0 to n - 1 do
                check_int (Printf.sprintf "%s part-0 of %d seen once" wname i) 1 hits.(i)
              done)
            [ 0; 1; 7; 64 ])
        [ 1; 2; 4; 8 ])
    weights

let test_weighted_reduce_splits_cover_ranges () =
  (* Range-splitting usage, as Measure does it: each index owns an integer
     range, parts slice it by recomputing identical boundaries. The global
     sum must match no matter how the units were stolen. *)
  let n = 13 in
  let width i = (i * 37 mod 101) + 1 in
  let bound i part parts = width i * part / parts in
  let expected = ref 0 in
  for i = 0 to n - 1 do
    expected := !expected + (width i * ((width i) - 1) / 2)
  done;
  List.iter
    (fun jobs ->
      let got =
        Pool.parallel_reduce_weighted ~jobs ~n
          ~weight:(fun i -> float_of_int (width i))
          ~init:0
          ~map:(fun i ~part ~parts ->
            let acc = ref 0 in
            for x = bound i part parts to bound i (part + 1) parts - 1 do
              acc := !acc + x
            done;
            !acc)
          ~combine:( + ) ()
      in
      check_int (Printf.sprintf "range sum jobs=%d" jobs) !expected got)
    [ 1; 2; 4; 8 ]

let test_weighted_reduce_rejects_bad_args () =
  let run ~n ~weight =
    ignore
      (Pool.parallel_reduce_weighted ~jobs:2 ~n ~weight ~init:0
         ~map:(fun i ~part:_ ~parts:_ -> i)
         ~combine:( + ) ())
  in
  Alcotest.check_raises "negative n"
    (Invalid_argument "Pool.parallel_reduce_weighted: n must be >= 0")
    (fun () -> run ~n:(-1) ~weight:(fun _ -> 1.0));
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Pool.parallel_reduce_weighted: weights must be >= 0")
    (fun () -> run ~n:4 ~weight:(fun i -> if i = 3 then -1.0 else 1.0))

(* ---- exact measures: values and witnesses identical at any job count ---- *)

let exact_zoo () =
  [
    ("cycle-10", Gen.cycle 10);
    ("grid-3x4", Gen.grid 3 4);
    ("hypercube-3", Gen.hypercube 3);
    ("gnp-11", Gen.gnp (rng ~salt:77 ()) 11 0.35);
  ]

let check_witnessed name (base : Measure.witnessed) (w : Measure.witnessed) =
  check_float (name ^ " value") base.Measure.value w.Measure.value;
  Alcotest.check bitset_testable (name ^ " witness") base.Measure.witness w.Measure.witness

let test_exact_job_independent () =
  List.iter
    (fun (name, g) ->
      let base_b = Measure.beta_exact ~jobs:1 g in
      let base_u = Measure.beta_u_exact ~jobs:1 g in
      let base_w = Measure.beta_w_exact ~jobs:1 g in
      List.iter
        (fun jobs ->
          check_witnessed
            (Printf.sprintf "%s beta jobs=%d" name jobs)
            base_b (Measure.beta_exact ~jobs g);
          check_witnessed
            (Printf.sprintf "%s beta_u jobs=%d" name jobs)
            base_u (Measure.beta_u_exact ~jobs g);
          check_witnessed
            (Printf.sprintf "%s beta_w jobs=%d" name jobs)
            base_w (Measure.beta_w_exact ~jobs g))
        [ 2; 8 ])
    (exact_zoo ())

let test_profiles_job_independent () =
  List.iter
    (fun (name, g) ->
      let base = Measure.profile_beta ~jobs:1 g in
      let base_w = Measure.profile_beta_w ~jobs:1 g in
      List.iter
        (fun jobs ->
          check_true
            (Printf.sprintf "%s profile jobs=%d" name jobs)
            (Measure.profile_beta ~jobs g = base);
          check_true
            (Printf.sprintf "%s profile_w jobs=%d" name jobs)
            (Measure.profile_beta_w ~jobs g = base_w))
        [ 2; 8 ])
    [ ("cycle-10", Gen.cycle 10); ("grid-3x3", Gen.grid 3 3) ]

(* The parallel witness is canonical — the lexicographically smallest
   minimiser — not merely consistent across job counts. On an even cycle
   every arc of kmax vertices attains β; the tiebreak must pick {0..4}. *)
let test_witness_is_lex_smallest () =
  let w = Measure.beta_exact ~jobs:3 (Gen.cycle 10) in
  check_true "lex-smallest arc" (Bitset.elements w.Measure.witness = [ 0; 1; 2; 3; 4 ])

(* ---- sampled measures: pure function of the seed ---- *)

let test_sampled_job_independent () =
  let g = Gen.grid 4 5 in
  (* 100 samples does not divide the 32-sample block, so the last block is
     short — the partial-block path must not disturb determinism. *)
  let run jobs =
    let r = Rng.create 2024 in
    Measure.beta_sampled ~jobs r ~samples:100 g
  in
  let base = run 1 in
  List.iter (fun jobs -> check_witnessed (Printf.sprintf "beta jobs=%d" jobs) base (run jobs)) [ 2; 8 ];
  let run_u jobs =
    let r = Rng.create 55 in
    Measure.beta_u_sampled ~jobs r ~samples:100 g
  in
  let base_u = run_u 1 in
  List.iter
    (fun jobs -> check_witnessed (Printf.sprintf "beta_u jobs=%d" jobs) base_u (run_u jobs))
    [ 2; 8 ];
  let run_w jobs =
    let r = Rng.create 99 in
    Measure.beta_w_sampled ~jobs r ~samples:48 g
  in
  let base_w = run_w 1 in
  List.iter
    (fun jobs -> check_witnessed (Printf.sprintf "beta_w jobs=%d" jobs) base_w (run_w jobs))
    [ 2; 8 ]

(* ---- sampled clamping (the k > 22 silent-discard bugfix) ---- *)

let counter_value name snap =
  match Json.member "counters" snap with
  | Some cs -> ( match Json.member name cs with Some j -> Json.to_int_opt j | None -> None)
  | None -> None

let with_metrics f =
  Metrics.enable ();
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.reset ();
      Metrics.disable ())
    f

let test_sampled_clamp_counts_draws () =
  with_metrics (fun () ->
      (* kmax = 25 > 22, so some draws must clamp; a tight inner work limit
         keeps the test fast (clamped draws then prune, small ones score). *)
      let g = Gen.cycle 50 in
      let r = Rng.create 7 in
      let w = Measure.beta_w_sampled ~inner_work_limit:1024 r ~samples:200 g in
      let snap = Metrics.snapshot () in
      let get name = Option.value ~default:0 (counter_value name snap) in
      check_int "every sample drawn" 200 (get "expansion.sampled_sets");
      check_true "clamped draws counted" (get "expansion.sampled_clamped" > 0);
      check_true "small draws still score" (Float.is_finite w.Measure.value);
      check_true "witness non-empty" (not (Bitset.is_empty w.Measure.witness)))

(* ---- batched hot-loop counters ----

   The exact loops accumulate sets_scored / gray_flips / improvements in
   unit-local ints and flush once per work unit; on the unpruned reference
   path ([~prune:false]) the published totals must be exactly the
   per-subset counts — independent of job count, and equal to the
   closed-form enumeration sizes. (With pruning, the visit count is the
   point of the optimisation and is timing-dependent; improvement counts
   additionally depend on the work-stealing unit split, which varies with
   the job count.) *)

let test_metric_totals_job_independent () =
  let g = Gen.cycle 10 in
  let n = 10 in
  let kmax = Measure.max_set_size g in
  let run jobs =
    with_metrics (fun () ->
        ignore (Measure.beta_exact ~prune:false ~jobs g);
        ignore (Measure.beta_u_exact ~prune:false ~jobs g);
        ignore (Measure.beta_w_exact ~prune:false ~jobs g);
        let snap = Metrics.snapshot () in
        let get name = Option.value ~default:0 (counter_value name snap) in
        ( get "expansion.sets_scored",
          get "expansion.gray_flips",
          get "expansion.witness_improvements",
          get "expansion.subtrees_pruned" ))
  in
  let sets1, flips1, imp1, cut1 = run 1 in
  (* Three exact measures, each scoring every non-empty set of size <= kmax
     exactly once. *)
  check_int "sets scored" (3 * Wx_util.Combi.subsets_count_le n kmax) sets1;
  (* One Gray walk of 2^k - 1 flips per outer set of size k. *)
  let expected_flips = ref 0 in
  for k = 1 to kmax do
    expected_flips := !expected_flips + (Wx_util.Combi.binomial n k * ((1 lsl k) - 1))
  done;
  check_int "gray flips" !expected_flips flips1;
  check_true "improvements recorded" (imp1 > 0);
  check_int "unpruned run cuts nothing" 0 cut1;
  List.iter
    (fun jobs ->
      let sets, flips, imp, cut = run jobs in
      check_int (Printf.sprintf "sets scored jobs=%d" jobs) sets1 sets;
      check_int (Printf.sprintf "gray flips jobs=%d" jobs) flips1 flips;
      check_true (Printf.sprintf "improvements recorded jobs=%d" jobs) (imp > 0);
      check_int (Printf.sprintf "no cuts jobs=%d" jobs) 0 cut)
    [ 2; 8 ]

(* ---- named work units (Wx_obs.Work) ---- *)

let test_work_totals_job_independent () =
  let g = Gen.cycle 10 in
  let n = 10 in
  let kmax = Measure.max_set_size g in
  let module Work = Wx_obs.Work in
  let run jobs =
    with_metrics (fun () ->
        ignore (Measure.beta_exact ~prune:false ~jobs g);
        ignore (Measure.beta_w_exact ~prune:false ~jobs g);
        ignore (Measure.beta_sampled ~jobs (Rng.create 3) ~samples:100 g);
        (Work.count Work.sets_scored, Work.count Work.gray_steps, Work.count Work.draws))
  in
  let sets1, flips1, draws1 = run 1 in
  (* Two exact measures score every non-empty set of size <= kmax once. *)
  check_int "work sets" (2 * Wx_util.Combi.subsets_count_le n kmax) sets1;
  let expected_flips = ref 0 in
  for k = 1 to kmax do
    expected_flips := !expected_flips + (Wx_util.Combi.binomial n k * ((1 lsl k) - 1))
  done;
  check_int "work gray steps" !expected_flips flips1;
  check_int "work draws" 100 draws1;
  List.iter
    (fun jobs ->
      let sets, flips, draws = run jobs in
      check_int (Printf.sprintf "work sets jobs=%d" jobs) sets1 sets;
      check_int (Printf.sprintf "work gray steps jobs=%d" jobs) flips1 flips;
      check_int (Printf.sprintf "work draws jobs=%d" jobs) draws1 draws)
    [ 2; 8 ];
  (* Work counters ride the Metrics registry: disabled means frozen. *)
  let before = Work.count Work.sets_scored in
  ignore (Measure.beta_exact ~jobs:1 g);
  check_int "work frozen while metrics disabled" before (Work.count Work.sets_scored)

(* ---- the persistent crew ---- *)

let sum_to n = n * (n - 1) / 2

(* sum_to n through the pool, one index per task. *)
let pool_sum ~jobs n =
  Pool.parallel_reduce_ranges ~jobs ~range:1 ~n ~init:0 ~map:(fun ~lo ~hi:_ -> lo)
    ~combine:( + ) ()

let test_crew_spawns_once () =
  with_metrics (fun () ->
      let spawned = Metrics.counter "pool.domains_spawned" in
      let before = Metrics.counter_value spawned in
      for k = 1 to 200 do
        check_int (Printf.sprintf "call %d" k) (sum_to 64)
          (pool_sum ~jobs:4 64)
      done;
      (* At most the three helpers jobs:4 needs, and none if an earlier
         test already grew the crew; spawning per call would show 600. *)
      check_true "helpers spawned once, not per call"
        (Metrics.counter_value spawned - before <= 3))

let test_nested_call_runs_on_caller () =
  (* Every outer task calls the pool while the outer run owns the crew:
     the inner calls must run on their own domain, not wait for it. Under
     metrics, the inner runs report the one slot that ran: a slot counted
     but never run would leave a zero finish stamp and an idle tail the
     size of the monotonic clock. *)
  with_metrics (fun () ->
      Pool.reset_util ();
      let n = 24 in
      let got =
        Pool.parallel_reduce_ranges ~jobs:4 ~range:1 ~n ~init:[]
          ~map:(fun ~lo ~hi:_ -> [ pool_sum ~jobs:4 (lo + 1) ])
          ~combine:( @ ) ()
      in
      Alcotest.(check (list int)) "nested sums" (List.init n (fun i -> sum_to (i + 1))) got;
      let u = Pool.util () in
      check_true "idle tails are real durations" (u.Pool.u_idle_tail_ns < 1_000_000_000);
      check_true "busy never exceeds capacity" (u.Pool.u_busy_ns <= u.Pool.u_capacity_ns))

let test_crew_survives_failure () =
  for _ = 1 to 3 do
    (match
       Pool.parallel_reduce_ranges ~jobs:4 ~range:1 ~n:200 ~init:0
         ~map:(fun ~lo ~hi:_ -> if lo mod 50 = 7 then failwith "boom" else lo)
         ~combine:( + ) ()
     with
    | _ -> Alcotest.fail "expected the task exception to re-raise"
    | exception Failure m -> check_true "original exception" (m = "boom"));
    check_int "next call on the same crew" (sum_to 200)
      (pool_sum ~jobs:4 200)
  done

let test_concurrent_callers () =
  (* Two domains race for the crew on every call; whichever loses runs
     alone. Both must see the sequential fold every time. *)
  let n = 300 and calls = 100 in
  let expected = List.init n Fun.id in
  let caller () =
    let ok = ref 0 in
    for _ = 1 to calls do
      if
        Pool.parallel_reduce_ranges ~jobs:4 ~range:7 ~n ~init:[] ~map:slice ~combine:( @ ) ()
        = expected
      then incr ok
    done;
    !ok
  in
  let other = Domain.spawn caller in
  let mine = caller () in
  check_int "this domain" calls mine;
  check_int "the other domain" calls (Domain.join other)

(* ---- per-worker busy/idle utilization ---- *)

(* A deterministic-shape workload: every index sleeps, so each claimed
   task contributes measurable busy time. *)
let test_util_attribution () =
  with_metrics (fun () ->
      let n = 8 in
      let sleepy ~jobs =
        Pool.reset_util ();
        Pool.parallel_reduce_ranges ~jobs ~range:1 ~n ~init:0
          ~map:(fun ~lo ~hi:_ ->
            Unix.sleepf 0.002;
            lo)
          ~combine:( + ) ()
      in
      check_int "reduce correct under util accounting" (n * (n - 1) / 2) (sleepy ~jobs:4);
      let u = Pool.util () in
      check_int "one parallel run" 1 u.Pool.u_runs;
      (* 8 sleeping tasks of ~2ms: at least half must show up as busy. *)
      check_true "busy time attributed" (u.Pool.u_busy_ns > 8_000_000);
      check_true "busy never exceeds capacity" (u.Pool.u_busy_ns <= u.Pool.u_capacity_ns);
      check_true "idle tail non-negative" (u.Pool.u_idle_tail_ns >= 0);
      check_true "idle tail within the run" (u.Pool.u_idle_tail_ns <= u.Pool.u_capacity_ns);
      (* jobs:1 takes the sequential path: it adds capacity and busy time,
         but no run and no idle tail. *)
      ignore (sleepy ~jobs:1);
      let u = Pool.util () in
      check_int "no parallel runs" 0 u.Pool.u_runs;
      check_true "sequential busy time attributed" (u.Pool.u_busy_ns > 8_000_000);
      check_true "sequential busy never exceeds capacity"
        (u.Pool.u_busy_ns <= u.Pool.u_capacity_ns);
      check_int "sequential run has no idle tail" 0 u.Pool.u_idle_tail_ns)

(* The zero-cost contract, now assertable: an uninstrumented pool run may
   not touch the monotonic clock at all (Metrics and tracing both off —
   the only Clock.now_ns calls are behind the instrumented flag). *)
let test_no_clock_reads_while_disabled () =
  Metrics.disable ();
  Wx_obs.Trace_export.disable ();
  (* Warm the pool separately: domain spawn paths are not part of the
     contract, steady-state runs are. *)
  ignore (pool_sum ~jobs:4 32);
  let before = Wx_obs.Clock.read_count () in
  let sum = pool_sum ~jobs:4 256 in
  let after = Wx_obs.Clock.read_count () in
  check_int "reduce still correct" (256 * 255 / 2) sum;
  check_int "zero clock reads while disabled" 0 (after - before);
  (* And the same run under metrics does read the clock. *)
  with_metrics (fun () ->
      let before = Wx_obs.Clock.read_count () in
      ignore (pool_sum ~jobs:4 256);
      check_true "instrumented run reads the clock" (Wx_obs.Clock.read_count () > before))

(* ---- metrics under concurrency ---- *)

let test_counters_race_free () =
  with_metrics (fun () ->
      let c = Metrics.counter "test.par.counter" in
      let tasks = 32 and per = 10_000 in
      parallel_iter ~jobs:8 ~n:tasks (fun _ ->
          for _ = 1 to per do
            Metrics.incr c
          done);
      check_int "no lost increments"
        (tasks * per)
        (Option.value ~default:(-1) (counter_value "test.par.counter" (Metrics.snapshot ()))))

let test_histogram_shards_merge () =
  with_metrics (fun () ->
      let h = Metrics.histogram "test.par.hist" in
      let tasks = 16 and per = 500 in
      parallel_iter ~jobs:4 ~n:tasks (fun _ ->
          for _ = 1 to per do
            Metrics.observe h 4.0
          done);
      let snap = Metrics.snapshot () in
      let hj =
        match Json.member "histograms" snap with
        | Some hs -> Option.get (Json.member "test.par.hist" hs)
        | None -> Alcotest.fail "no histograms section"
      in
      check_int "merged count" (tasks * per)
        (Option.get (Json.to_int_opt (Option.get (Json.member "count" hj))));
      check_float "merged sum"
        (4.0 *. float_of_int (tasks * per))
        (Option.get (Json.to_float_opt (Option.get (Json.member "sum" hj)))))

let suite =
  [
    Alcotest.test_case "reduce preserves fold order" `Quick test_reduce_order_is_sequential;
    Alcotest.test_case "reduce matches fold" `Quick test_reduce_matches_fold;
    Alcotest.test_case "ranges cover every index once" `Quick test_ranges_cover_each_index_once;
    Alcotest.test_case "worker exception propagates" `Quick test_worker_exception_propagates;
    Alcotest.test_case "crew spawns once, not per call" `Quick test_crew_spawns_once;
    Alcotest.test_case "nested call runs on its caller" `Quick test_nested_call_runs_on_caller;
    Alcotest.test_case "crew survives a failed run" `Quick test_crew_survives_failure;
    Alcotest.test_case "concurrent callers get the fold" `Quick test_concurrent_callers;
    Alcotest.test_case "weighted reduce preserves fold order" `Quick
      test_weighted_reduce_order_is_sequential;
    Alcotest.test_case "weighted reduce splits cover ranges" `Quick
      test_weighted_reduce_splits_cover_ranges;
    Alcotest.test_case "weighted reduce rejects bad args" `Quick
      test_weighted_reduce_rejects_bad_args;
    Alcotest.test_case "exact values+witnesses job-independent" `Quick test_exact_job_independent;
    Alcotest.test_case "profiles job-independent" `Quick test_profiles_job_independent;
    Alcotest.test_case "witness is lex-smallest" `Quick test_witness_is_lex_smallest;
    Alcotest.test_case "sampled reproducible across jobs" `Quick test_sampled_job_independent;
    Alcotest.test_case "sampled clamp counts draws" `Quick test_sampled_clamp_counts_draws;
    Alcotest.test_case "batched counter totals job-independent" `Quick
      test_metric_totals_job_independent;
    Alcotest.test_case "work totals job-independent" `Quick test_work_totals_job_independent;
    Alcotest.test_case "utilization attribution deterministic" `Quick test_util_attribution;
    Alcotest.test_case "no clock reads while disabled" `Quick test_no_clock_reads_while_disabled;
    Alcotest.test_case "counters race-free" `Quick test_counters_race_free;
    Alcotest.test_case "histogram shards merge" `Quick test_histogram_shards_merge;
  ]
