(* Experiment registry and repeat-aware runner behind `wx bench record`.

   Each experiment runs [repeats] times (median-of-k is what the regression
   gate compares), with checks drained after every repeat so only one copy
   lands in the report. Metrics and Memgc are enabled by the caller; every
   run collects the metrics snapshot, work counts and pool utilization the
   report records. *)

open Bench_common
module Clock = Wx_obs.Clock
module Memgc = Wx_obs.Memgc
module Work = Wx_obs.Work
module Pool = Wx_par.Pool
module Report = Wx_obs.Report

let experiments : experiment list =
  [
    E01_relations.experiment;
    E02_spectral.experiment;
    E03_unique_tightness.experiment;
    E04_gbad_wireless.experiment;
    E05_core_graph.experiment;
    E06_gen_core.experiment;
    E07_positive.experiment;
    E08_worst_case.experiment;
    E09_spokesmen.experiment;
    E10_appendix_ladder.experiment;
    E11_broadcast.experiment;
    E12_arboricity.experiment;
    Ablations.experiment;
    Kernel_bench.experiment;
    Simscale.experiment;
  ]

let find id = List.find_opt (fun e -> e.id = id) experiments

type outcome = {
  exp : experiment;
  wall_s : float list;  (** one sample per repeat, in run order *)
  alloc : Memgc.counters option;  (** last repeat's delta; None when Memgc off *)
  work : (string * int) list;  (** last repeat's Work deltas *)
  util : Report.util option;  (** pool utilization across all repeats *)
  checks : check_row list;
  metrics : Json.t;  (** the Metrics snapshot after the last repeat *)
}

(* Reduce the pool's nanosecond total to the report's utilization block.
   An experiment with no instrumented pool run gets no block. An undefined
   fraction (no capacity) encodes as 0.0 rather than NaN: the JSON layer
   writes NaN as null, which the defensive decoder would reject. *)
let util_of_pool (u : Pool.util) : Report.util option =
  if u.Pool.u_runs = 0 && u.Pool.u_capacity_ns = 0 then None
  else
    Some
      {
        Report.ut_runs = u.Pool.u_runs;
        ut_busy_frac =
          (if u.Pool.u_capacity_ns > 0 then
             float_of_int u.Pool.u_busy_ns /. float_of_int u.Pool.u_capacity_ns
           else 0.0);
        ut_idle_tail_ms =
          (if u.Pool.u_runs = 0 then 0.0
           else Clock.ns_to_ms u.Pool.u_idle_tail_ns /. float_of_int u.Pool.u_runs);
      }

(* Testing hook for the regression gate itself: WX_BENCH_HANDICAP_MS adds a
   fixed sleep to every experiment repeat, so "wx bench diff detects an
   injected slowdown" is checkable without de-optimizing real code. *)
let handicap_s () =
  match Sys.getenv_opt "WX_BENCH_HANDICAP_MS" with
  | None -> 0.0
  | Some s -> ( match float_of_string_opt s with Some ms when ms > 0.0 -> ms /. 1e3 | _ -> 0.0)

(* The alloc-gate analogue: WX_BENCH_ALLOC_HANDICAP_WORDS burns roughly
   that many minor words inside the measured window of every repeat, so
   "wx bench diff --alloc-only catches an injected allocation regression"
   is testable end to end. *)
let alloc_handicap_words () =
  match Sys.getenv_opt "WX_BENCH_ALLOC_HANDICAP_WORDS" with
  | None -> 0
  | Some s -> ( match int_of_string_opt s with Some w when w > 0 -> w | _ -> 0)

(* A 1KiB bytes block costs a deterministic ~130 words (header + payload);
   Sys.opaque_identity keeps flambda-less ocamlopt from dropping it too. *)
let burn_minor_words w =
  let per_block = 1 + ((1024 / (Sys.word_size / 8)) + 1) in
  for _ = 1 to (w + per_block - 1) / per_block do
    ignore (Sys.opaque_identity (Bytes.create 1024))
  done

let experiment_timer = Metrics.timer "bench.experiment"

let run_one ?(repeats = 1) ~quick e =
  section e;
  Metrics.reset ();
  Pool.reset_util ();
  let repeats = max 1 repeats in
  let handicap = handicap_s () in
  let alloc_handicap = alloc_handicap_words () in
  let wall_rev = ref [] and last_checks = ref [] and last_alloc = ref None in
  let last_work = ref [] in
  for rep = 1 to repeats do
    ignore (take_recorded ());
    (* Work totals are read outside the alloc window (the reads allocate
       small lists); Work counters only move inside e.run, so the delta is
       exact anyway. Like alloc, the last repeat's delta is what lands in
       the report — repeats are identical by the determinism contract. *)
    let w0 = Work.totals () in
    (* The alloc window hugs the run itself: the before-read comes first so
       the wall clock absorbs its cost, and everything after the after-read
       (handicap sleep, progress printf with varying-width floats) stays
       outside — minor-word deltas must be byte-identical across runs. *)
    let g0 = Memgc.read () in
    let t0 = Clock.now_ns () in
    Metrics.time experiment_timer (fun () -> e.run ~quick);
    if alloc_handicap > 0 then burn_minor_words alloc_handicap;
    let g1 = Memgc.read () in
    if Memgc.is_enabled () then last_alloc := Some (Memgc.diff ~before:g0 ~after:g1);
    if handicap > 0.0 then Unix.sleepf handicap;
    let wall_s = Clock.ns_to_s (Clock.now_ns () - t0) in
    wall_rev := wall_s :: !wall_rev;
    last_work := Work.delta ~before:w0 ~after:(Work.totals ());
    (* Every repeat records the same checks; keep the latest drain. *)
    last_checks := take_recorded ();
    if repeats > 1 then Printf.printf "  [%s repeat %d/%d: %.1fs]\n" e.id rep repeats wall_s
    else Printf.printf "  [%s finished in %.1fs]\n" e.id wall_s
  done;
  {
    exp = e;
    wall_s = List.rev !wall_rev;
    alloc = !last_alloc;
    work = !last_work;
    util = util_of_pool (Pool.util ());
    checks = !last_checks;
    metrics = Metrics.snapshot ();
  }

let entry_of_outcome o : Report.entry =
  let holds = List.length (List.filter (fun (c : check_row) -> c.holds) o.checks) in
  {
    Report.id = o.exp.id;
    title = o.exp.title;
    claim = o.exp.claim;
    wall_s = o.wall_s;
    alloc = o.alloc;
    work = o.work;
    util = o.util;
    holds;
    total = List.length o.checks;
    checks = Json.List (List.map row_json o.checks);
    metrics = o.metrics;
  }

let report ~quick ~repeats outcomes =
  Report.make ~seed ~quick ~jobs:(Pool.default_jobs ()) ~repeats
    (List.map entry_of_outcome outcomes)

(* Run the whole zoo (or one experiment); [Error] names an unknown
   experiment id and lists the valid ones. *)
let run ?only ?(repeats = 1) ~quick () =
  match only with
  | Some id -> (
      match find id with
      | Some e -> Ok [ run_one ~repeats ~quick e ]
      | None ->
          Error
            (Printf.sprintf "unknown experiment %S; valid ids: %s" id
               (String.concat ", " (List.map (fun e -> e.id) experiments))))
  | None -> Ok (List.map (run_one ~repeats ~quick) experiments)
