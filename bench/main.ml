(* Experiment harness for the Wireless Expanders reproduction.

   dune exec bench/main.exe                 # all experiments + ablations + micro
   dune exec bench/main.exe -- -e e5        # one experiment
   dune exec bench/main.exe -- --quick      # shrunken parameter grids
   dune exec bench/main.exe -- --list       # what exists
   dune exec bench/main.exe -- --json       # also write BENCH_<timestamp>.json
   dune exec bench/main.exe -- --json out.json
   dune exec bench/main.exe -- --jobs 4     # worker domains for exact measures
   dune exec bench/main.exe -- --repeats 3  # median-of-3 wall times in the report

   Every experiment prints one or more predicted-vs-measured tables; the
   mapping from experiment id to paper claim is in DESIGN.md §5, and the
   recorded outcomes live in EXPERIMENTS.md. Under --json the same runs
   additionally emit a machine-readable wx-bench/4 report (Wx_obs.Report):
   per-experiment wall-time samples, GC/allocation counters, per-claim
   checks, the wx_obs metrics snapshot, and run provenance. The experiment
   zoo itself lives in the wx_bench library (bench/runner.ml) so `wx bench
   record` shares it. *)

module Runner = Wx_bench.Runner
module Report = Wx_obs.Report
module Metrics = Wx_obs.Metrics
module Clock = Wx_obs.Clock
module Pool = Wx_par.Pool

let write_report ~path ~quick ~repeats outcomes =
  Report.save path (Runner.report ~quick ~repeats outcomes);
  Printf.printf "\nwrote %s\n" path

let list_experiments () =
  List.iter
    (fun (e : Wx_bench.Bench_common.experiment) ->
      Printf.printf "%-9s %-55s %s\n" e.id e.title e.claim)
    Runner.experiments

let main experiment_id quick listing skip_micro json jobs repeats =
  (match jobs with Some n -> Pool.set_default_jobs n | None -> ());
  Printf.printf "wireless-expanders experiment harness (seed %d, jobs %d)\n"
    Wx_bench.Bench_common.seed (Pool.default_jobs ());
  if listing then (list_experiments (); 0)
  else begin
    let collect = json <> None in
    if collect then begin
      Metrics.enable ();
      (* Alloc counters ride along with any JSON report; reads happen only
         around each experiment so the hot paths stay untouched. *)
      Wx_obs.Memgc.enable ()
    end;
    match Runner.run ?only:experiment_id ~repeats ~quick ~collect () with
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        1
    | Ok outcomes ->
        if experiment_id = None && not skip_micro then Micro.run ();
        (match json with
        | Some "" ->
            write_report ~path:("BENCH_" ^ Clock.timestamp () ^ ".json") ~quick ~repeats outcomes
        | Some path -> write_report ~path ~quick ~repeats outcomes
        | None -> ());
        0
  end

open Cmdliner

let experiment_arg =
  let doc = "Run a single experiment (e1..e12 or 'ablation'); default: all." in
  Arg.(value & opt (some string) None & info [ "e"; "experiment" ] ~docv:"ID" ~doc)

let quick_arg =
  let doc = "Shrink parameter grids for a fast smoke run." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let list_arg =
  let doc = "List experiments and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let skip_micro_arg =
  let doc = "Skip the bechamel micro-benchmark section." in
  Arg.(value & flag & info [ "skip-micro" ] ~doc)

let json_arg =
  let doc =
    "Write a machine-readable wx-bench/4 report to $(docv) (default: BENCH_<timestamp>.json). \
     Enables metrics and allocation-counter collection for the run."
  in
  Arg.(value & opt ~vopt:(Some "") (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the parallel expansion measures (default: $(b,WX_JOBS) if set, else \
     the runtime's recommended domain count). Per-experiment results are identical at any \
     value; the report records the jobs used so wall-time speedups are attributable."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let repeats_arg =
  let doc =
    "Run every experiment $(docv) times; the report records all wall-time samples and \
     `wx bench diff` compares medians against the spread."
  in
  Arg.(value & opt int 1 & info [ "repeats"; "r" ] ~docv:"K" ~doc)

let cmd =
  let doc = "Reproduce every quantitative claim of 'Wireless Expanders' (SPAA 2018)" in
  let info = Cmd.info "wireless-expanders-bench" ~doc in
  Cmd.v info
    Term.(
      const main $ experiment_arg $ quick_arg $ list_arg $ skip_micro_arg $ json_arg $ jobs_arg
      $ repeats_arg)

let () = exit (Cmd.eval' cmd)
