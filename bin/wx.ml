(* wx — command-line front end to the wireless-expanders library.

   Subcommands:
     wx info      <family> <size>              graph statistics
     wx expansion <family> <size> [--alpha a]  β / βw / βu (exact or witness)
     wx spokesmen <family> <size> [--solver s] spokesmen election on a frontier
     wx broadcast <family> <size> [--protocol p] [--seeds k]
     wx core      <s>                          core-graph property report
     wx arboricity <family> <size>             exact (flow) vs bounds
     wx bench record [--out F] [--repeats K] [--force]
                                               run the experiment zoo, write a
                                               wx-bench/4 report (baseline);
                                               refuses to overwrite sans --force
     wx bench diff OLD.json NEW.json           noise-aware wall-time gate and a
                                               deterministic allocation gate
                                               (--alloc-only)
     wx bench history append REPORT.json       digest a report into the perf-
                                               trajectory ledger (dedup by commit)
     wx bench history show [--metric M] [-e E] entries + per-experiment series
                                               with sparklines (wall|alloc)
     wx bench history gate [--soft]            trend gate: newest entry vs the
                                               preceding window, diff's rule
                                               per metric; exit 0/1/2
     wx prof [--out F] [--alloc] -- <cmd> ...  run under Chrome tracing, print
                                               the hottest spans (by self time,
                                               or self-allocation with --alloc);
                                               exit status follows the inner cmd
     wx prof diff OLD.trace NEW.trace          differential profile: per-span
                                               self-time/alloc deltas,
                                               regressions first; exit 0/1/2

   Every measurement subcommand takes --json (machine-readable NDJSON
   events on stdout, human text on stderr), --metrics (collect the Wx_obs
   registry and report it at exit; also enabled by WX_METRICS=1),
   --jobs N (worker domains for the parallel expansion measures; WX_JOBS
   sets the default) and --expose PORT (serve the live registry over
   localhost HTTP as Prometheus text on /metrics; WX_EXPOSE sets the
   default).

   Families are the names from Constructions.Families (cycle, grid, torus,
   hypercube, random-4-regular, margulis, ...), plus "cplus" and "chain". *)

open Wireless_expanders.Api
module T = Util.Table
module J = Obs.Json

let base_seed = Wireless_expanders.Instances.seed

let make_graph family size seed =
  match family with
  | "cplus" -> Constructions.Cplus.create (max 3 size)
  | "chain" ->
      let ch =
        Constructions.Broadcast_chain.create (Util.Rng.create seed) ~copies:(max 1 (size / 64))
          ~s:16
      in
      ch.Constructions.Broadcast_chain.graph
  (* Sparse random families for scale runs: both build in O(n + m), so
     million-node instances need no O(n²) coin-flip loop. *)
  | "gnm" ->
      let n = max 2 size in
      Gen.gnm (Util.Rng.create seed) n (min (4 * n) (n * (n - 1) / 2))
  | "cm-regular" ->
      let n = max 16 size in
      Gen.random_regular_config (Util.Rng.create seed) n 8
  | name ->
      let f = Constructions.Families.find name in
      f.Constructions.Families.make (Util.Rng.create seed) size

(* Validate a family name against the registry; constructing a graph just to
   check the name would burn RNG state and real work for large sizes. *)
let family_names =
  List.map (fun f -> f.Constructions.Families.name) Constructions.Families.all
  @ [ "cplus"; "chain"; "gnm"; "cm-regular" ]

let family_conv =
  let parse s =
    if List.mem s family_names then Ok s
    else
      Error
        (`Msg
          (Printf.sprintf "unknown family %S; available: %s" s (String.concat ", " family_names)))
  in
  Cmdliner.Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt s)

(* ---- observability plumbing ---- *)

type obs = { json : bool; metrics : bool }

(* Under --json, stdout carries nothing but NDJSON events; all human text is
   diverted to stderr so the stream stays parseable. *)
let say obs fmt =
  Printf.ksprintf (fun s -> if obs.json then output_string stderr s else print_string s) fmt

let event obs name fields = if obs.json then Obs.Sink.event name fields

(* --expose/WX_EXPOSE needs the registry on so there is something to
   scrape, but an operator attaching to a run did not ask for the exit
   report; remember when exposition alone enabled the registry so
   [obs_finish] stays quiet about it. *)
let expose_enabled_metrics = ref false

let obs_finish obs =
  if obs.metrics || (Obs.Metrics.is_enabled () && not !expose_enabled_metrics) then begin
    if obs.json then begin
      Obs.Sink.event "metrics" [ ("snapshot", Obs.Metrics.snapshot ()) ];
      if Obs.Span.root_spans () <> [] then Obs.Sink.event "spans" [ ("roots", Obs.Span.to_json ()) ]
    end
    else begin
      (* Reached with --metrics, or with WX_METRICS=1 alone: an enabled
         registry that nobody prints would be silent instrumentation. *)
      print_string (Obs.Metrics.render ());
      if Obs.Span.root_spans () <> [] then print_string (Obs.Span.render ())
    end
  end

(* The NDJSON sink batches writes and flushes from an at_exit hook; convert
   the two interruption signals into a clean [exit] so that hook runs and a
   ^C'd --json stream still ends on a complete line. *)
let exit_cleanly_on_signals () =
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle (fun n -> exit (128 + n)))
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

(* Resolve the exposition port: the --expose flag wins, else WX_EXPOSE.
   A non-numeric WX_EXPOSE warns rather than silently disabling — the
   operator who exported it wants to know the attach point never opened. *)
let expose_port flag =
  match flag with
  | Some p -> Some p
  | None -> (
      match Sys.getenv_opt "WX_EXPOSE" with
      | None | Some "" -> None
      | Some s -> (
          match int_of_string_opt (String.trim s) with
          | Some p when p >= 0 -> Some p
          | _ ->
              Printf.eprintf "warning: WX_EXPOSE=%S is not a port number; exposition disabled\n%!"
                s;
              None))

(* Shared wrapper: set the parallelism level, enable instruments, start the
   exposition endpoint when asked, run the command under a root span, then
   flush the requested reports. *)
let run_cmd name json metrics jobs expose f =
  (match jobs with Some n -> Par.Pool.set_default_jobs n | None -> ());
  let obs = { json; metrics } in
  if json || metrics then Obs.Metrics.enable ();
  let expose_srv =
    match expose_port expose with
    | None -> None
    | Some port -> (
        if not (Obs.Metrics.is_enabled ()) then begin
          expose_enabled_metrics := true;
          Obs.Metrics.enable ()
        end;
        match Obs.Expose.start ~port () with
        | Ok srv ->
            Printf.eprintf "[expose] serving http://127.0.0.1:%d/metrics\n%!"
              (Obs.Expose.port srv);
            (* A bound port must not outlive an interrupted run: stop on
               every exit path, including the signal one below (the handler
               turns SIGINT/SIGTERM into [exit], which runs at_exit). *)
            at_exit (fun () -> Obs.Expose.stop srv);
            Some srv
        | Error msg ->
            Printf.eprintf "warning: --expose: cannot bind %s; continuing without exposition\n%!"
              msg;
            None)
  in
  if json then begin
    Obs.Sink.install (Obs.Sink.make ~fmt:Obs.Sink.Ndjson stdout);
    exit_cleanly_on_signals ()
  end;
  (match expose_srv with Some _ when not json -> exit_cleanly_on_signals () | _ -> ());
  let code = Obs.Span.with_ ~name:("wx." ^ name) (fun () -> f obs) in
  obs_finish obs;
  (match expose_srv with Some srv -> Obs.Expose.stop srv | None -> ());
  code

(* ---- info ---- *)

let cmd_info obs family size seed =
  let g = make_graph family size seed in
  say obs "family: %s (requested size %d, seed %d)\n" family size seed;
  say obs "n = %d, m = %d\n" (Graph.n g) (Graph.m g);
  say obs "degrees: min %d, max %d, avg %.2f%s\n" (Graph.min_degree g) (Graph.max_degree g)
    (Graph.avg_degree g)
    (match Graph.is_regular g with Some d -> Printf.sprintf " (regular, d = %d)" d | None -> "");
  let connected = Traversal.is_connected g and bipartite = Traversal.is_bipartite g in
  say obs "connected: %b; bipartite: %b\n" connected bipartite;
  let diameter =
    if Graph.n g <= 400 && connected then begin
      let d = Traversal.diameter g in
      say obs "diameter: %d\n" d;
      Some d
    end
    else None
  in
  (* The exact arboricity is one flow per anchor vertex; [wx arboricity]
     answers it, [info] stays linear-time. *)
  let degeneracy = Arboricity.degeneracy g in
  say obs "degeneracy: %d\n" degeneracy;
  event obs "graph.info"
    ([
       ("family", J.String family);
       ("seed", J.Int seed);
       ("n", J.Int (Graph.n g));
       ("m", J.Int (Graph.m g));
       ("min_degree", J.Int (Graph.min_degree g));
       ("max_degree", J.Int (Graph.max_degree g));
       ("avg_degree", J.Float (Graph.avg_degree g));
       ("connected", J.Bool connected);
       ("bipartite", J.Bool bipartite);
       ("degeneracy", J.Int degeneracy);
     ]
    @ match diameter with Some d -> [ ("diameter", J.Int d) ] | None -> []);
  0

(* ---- expansion ---- *)

let cmd_expansion obs family size seed alpha =
  let g = make_graph family size seed in
  say obs "%s (n = %d, α = %.2f)\n" family (Graph.n g) alpha;
  let exact_possible = Graph.n g <= 14 in
  let emit mode b bw bu =
    event obs "expansion.result"
      ([
         ("family", J.String family);
         ("n", J.Int (Graph.n g));
         ("alpha", J.Float alpha);
         ("mode", J.String mode);
         ("beta", J.Float b);
       ]
      @ (match bw with Some v -> [ ("beta_w", J.Float v) ] | None -> [])
      @ [ ("beta_u", J.Float bu) ])
  in
  if exact_possible then begin
    let b = Expansion.Measure.beta_exact ~alpha g in
    let bw = Expansion.Measure.beta_w_exact ~alpha g in
    let bu = Expansion.Measure.beta_u_exact ~alpha g in
    say obs "β  = %.4f (exact)  witness %s\n" b.Expansion.Measure.value
      (Util.Bitset.to_string b.Expansion.Measure.witness);
    say obs "βw = %.4f (exact)\n" bw.Expansion.Measure.value;
    say obs "βu = %.4f (exact)  witness %s\n" bu.Expansion.Measure.value
      (Util.Bitset.to_string bu.Expansion.Measure.witness);
    emit "exact" b.Expansion.Measure.value (Some bw.Expansion.Measure.value)
      bu.Expansion.Measure.value
  end
  else begin
    let r = Util.Rng.create (seed + 1) in
    let b = Expansion.Measure.beta_sampled ~alpha r ~samples:2000 g in
    let bu = Expansion.Measure.beta_u_sampled ~alpha r ~samples:2000 g in
    say obs "β  <= %.4f (witness certificate, 2000 samples)\n" b.Expansion.Measure.value;
    say obs "βu <= %.4f (witness certificate)\n" bu.Expansion.Measure.value;
    let bw =
      match Expansion.Measure.beta_w_sampled ~alpha r ~samples:300 g with
      | bw ->
          say obs "βw <= %.4f (witness certificate)\n" bw.Expansion.Measure.value;
          Some bw.Expansion.Measure.value
      | exception _ ->
          say obs "βw: sets too large for the inner exact maximization\n";
          None
    in
    emit "sampled" b.Expansion.Measure.value bw bu.Expansion.Measure.value
  end;
  0

(* ---- spokesmen ---- *)

let cmd_spokesmen obs family size seed solver =
  let g = make_graph family size seed in
  let r = Util.Rng.create (seed + 2) in
  let k = max 1 (Graph.n g / 4) in
  let s = Util.Bitset.random_of_universe r (Graph.n g) k in
  let inst, _, _ = Bipartite.of_set_neighborhood g s in
  say obs "frontier instance from %s: %s\n" family (Format.asprintf "%a" Bipartite.pp inst);
  let results =
    match solver with
    | "all" -> Spokesmen.Portfolio.solve_each ~reps:48 r inst
    | name -> (
        match List.assoc_opt name Spokesmen.Portfolio.solvers with
        | Some f -> [ (name, f r inst) ]
        | None ->
            Printf.eprintf "unknown solver %S; use --solver all to list results of all\n" name;
            exit 1)
  in
  let t = T.create [ "solver"; "covered"; "of |N|" ] in
  List.iter
    (fun (name, res) ->
      let frac =
        100.0
        *. float_of_int res.Spokesmen.Solver.covered
        /. float_of_int (max 1 (Bipartite.n_count inst))
      in
      event obs "spokesmen.solver"
        [
          ("solver", J.String name);
          ("covered", J.Int res.Spokesmen.Solver.covered);
          ("of_n", J.Float (frac /. 100.0));
        ];
      T.add_row t
        [ name; T.fi res.Spokesmen.Solver.covered; Printf.sprintf "%.1f%%" frac ])
    results;
  say obs "%s" (T.render t);
  (match Spokesmen.Bb.solve ~node_limit:2_000_000 inst with
  | r, Spokesmen.Bb.Proved_optimal ->
      event obs "spokesmen.optimum"
        [ ("covered", J.Int r.Spokesmen.Solver.covered); ("proved", J.Bool true) ];
      say obs "optimum (branch-and-bound): %d\n" r.Spokesmen.Solver.covered
  | r, Spokesmen.Bb.Budget_exhausted ->
      event obs "spokesmen.optimum"
        [ ("covered", J.Int r.Spokesmen.Solver.covered); ("proved", J.Bool false) ];
      say obs "best proven-so-far (budget hit): %d\n" r.Spokesmen.Solver.covered);
  0

(* ---- broadcast ---- *)

let protocol_of_name g = function
  | "flood" -> Radio.Sim_csr.flood
  | "decay" -> Radio.Sim_csr.decay
  | "spokesmen" -> Radio.Spokesmen_cast.protocol g
  | s when String.length s > 8 && String.sub s 0 8 = "uniform-" ->
      Radio.Sim_csr.uniform (float_of_string (String.sub s 8 (String.length s - 8)))
  | s ->
      Printf.eprintf "unknown protocol %S (flood | decay | spokesmen | uniform-<p>)\n" s;
      exit 1

let cmd_broadcast obs family size seed protocol seeds =
  let g = make_graph family size seed in
  let p = protocol_of_name g protocol in
  say obs "broadcast on %s (n = %d) with %s, %d seeds\n" family (Graph.n g) p.Radio.Sim_csr.name
    seeds;
  let seed_list = List.init seeds (fun i -> seed + 100 + i) in
  (* Run each seed explicitly so the NDJSON stream can carry a run boundary
     around the simulator's own per-round "radio.round" events. *)
  let outs =
    List.map
      (fun sd ->
        event obs "broadcast.start"
          [ ("seed", J.Int sd); ("protocol", J.String p.Radio.Sim_csr.name) ];
        let o =
          Radio.Sim_csr.run ~max_rounds:100_000 g ~source:0 p (Util.Rng.create sd)
        in
        event obs "broadcast.run"
          [
            ("seed", J.Int sd);
            ("rounds", J.Int o.Radio.Sim.rounds);
            ("completed", J.Bool o.Radio.Sim.completed);
            ("informed", J.Int o.Radio.Sim.informed_final);
            ("collisions", J.Int o.Radio.Sim.collisions);
          ];
        o)
      seed_list
  in
  let rounds = Util.Stats.of_ints (Array.of_list (List.map (fun o -> o.Radio.Sim.rounds) outs)) in
  let completed = List.length (List.filter (fun o -> o.Radio.Sim.completed) outs) in
  say obs "completed: %d/%d\n" completed seeds;
  if completed > 0 then begin
    let s = Util.Stats.summarize rounds in
    say obs "rounds: %s\n" (Format.asprintf "%a" Util.Stats.pp_summary s);
    event obs "broadcast.summary"
      [
        ("completed", J.Int completed);
        ("seeds", J.Int seeds);
        ("rounds_mean", J.Float (Util.Stats.mean rounds));
        ("rounds_min", J.Float (Util.Stats.min rounds));
        ("rounds_max", J.Float (Util.Stats.max rounds));
      ]
  end;
  0

(* ---- core ---- *)

let cmd_core obs s =
  if not (Util.Floatx.is_pow2 s) then begin
    Printf.eprintf "s must be a power of two\n";
    1
  end
  else begin
    let cg = Constructions.Core_graph.create s in
    let inst = Constructions.Core_graph.bip cg in
    say obs "core graph: %s\n" (Format.asprintf "%a" Bipartite.pp inst);
    let log2s = Util.Floatx.log2 (2.0 *. float_of_int s) in
    let mins = Constructions.Core_graph.dp_min_coverage cg in
    let worst = ref infinity in
    for k = 1 to s do
      worst := Float.min !worst (float_of_int mins.(k) /. float_of_int k)
    done;
    say obs "ordinary expansion (exact): %.3f  [Lemma 4.4 promises >= %.3f]\n" !worst log2s;
    let cap = Constructions.Core_graph.dp_max_unique cg in
    say obs "max unique coverage (exact): %d  [Lemma 4.4 caps at %d]\n" cap (2 * s);
    say obs "wireless/ordinary ratio: %.3f  [paper: 2/log 2s = %.3f]\n"
      (float_of_int cap /. float_of_int s /. !worst)
      (2.0 /. log2s);
    event obs "core.report"
      [
        ("s", J.Int s);
        ("ordinary_expansion", J.Float !worst);
        ("lemma_4_4_lb", J.Float log2s);
        ("max_unique", J.Int cap);
        ("max_unique_cap", J.Int (2 * s));
        ("ratio", J.Float (float_of_int cap /. float_of_int s /. !worst));
        ("paper_ratio", J.Float (2.0 /. log2s));
      ];
    0
  end

(* ---- schedule ---- *)

let cmd_schedule obs family size seed =
  let g = make_graph family size seed in
  let r = Util.Rng.create (seed + 3) in
  say obs "synthesizing offline broadcast schedule on %s (n = %d)...\n" family (Graph.n g);
  (match Radio.Schedule.synthesize r g ~source:0 with
  | sch ->
      let ok, informed = Radio.Schedule.certify g sch in
      let len = Radio.Schedule.length sch in
      let bfs_lb = Radio.Schedule.lower_bound_rounds g ~source:0 in
      say obs "rounds: %d (BFS lower bound %d)\n" len bfs_lb;
      say obs "replay: %s (%d/%d informed)\n"
        (if ok then "complete" else "INCOMPLETE")
        informed (Graph.n g);
      Array.iteri
        (fun i tx ->
          if i < 10 then
            say obs "  round %2d: %d transmitters\n" (i + 1) (Util.Bitset.cardinal tx))
        sch.Radio.Schedule.rounds;
      if len > 10 then say obs "  ...\n";
      event obs "schedule.result"
        [
          ("family", J.String family);
          ("n", J.Int (Graph.n g));
          ("rounds", J.Int len);
          ("bfs_lower_bound", J.Int bfs_lb);
          ("complete", J.Bool ok);
          ("informed", J.Int informed);
        ]
  | exception Failure msg ->
      say obs "failed: %s\n" msg;
      event obs "schedule.result" [ ("family", J.String family); ("error", J.String msg) ]);
  0

(* ---- arboricity ---- *)

let cmd_arboricity obs family size seed =
  let g = make_graph family size seed in
  say obs "%s: n = %d, m = %d\n" family (Graph.n g) (Graph.m g);
  let num, den, u = Densest.max_density g in
  say obs "max density |E(U)|/(|U|−1) = %d/%d = %.3f at |U| = %d\n" num den
    (float_of_int num /. float_of_int den)
    (Util.Bitset.cardinal u);
  (* Densest.arboricity_exact is this ceiling over the same flow. *)
  let exact = if Graph.n g <= 1 || Graph.m g = 0 then 0 else (num + den - 1) / den in
  let peel = Arboricity.lower_bound_peeling g and degen = Arboricity.degeneracy g in
  say obs "exact arboricity: %d\n" exact;
  say obs "peeling lower bound: %d, degeneracy upper-ish bound: %d\n" peel degen;
  event obs "arboricity.result"
    [
      ("family", J.String family);
      ("n", J.Int (Graph.n g));
      ("m", J.Int (Graph.m g));
      ("density_num", J.Int num);
      ("density_den", J.Int den);
      ("exact", J.Int exact);
      ("peeling_lb", J.Int peel);
      ("degeneracy", J.Int degen);
    ];
  0

(* ---- dot ---- *)

let cmd_dot obs family size seed =
  let g = make_graph family size seed in
  if obs.json then event obs "graph.dot" [ ("dot", J.String (Graph_io.to_dot g)) ]
  else print_string (Graph_io.to_dot g);
  0

(* ---- verify-paper ---- *)

let cmd_verify_paper obs quick seed =
  let rng = Util.Rng.create seed in
  say obs "verifying every claim of the paper on the curated instances (seed %d%s)...\n" seed
    (if quick then ", quick" else "");
  let checks = Wireless_expanders.Theorems.run_all ~quick rng in
  if obs.json then
    List.iter
      (fun c ->
        event obs "claim.check"
          [
            ("claim", J.String c.Wireless_expanders.Theorems.claim);
            ("instance", J.String c.Wireless_expanders.Theorems.instance);
            ("predicted", J.Float c.Wireless_expanders.Theorems.predicted);
            ("measured", J.Float c.Wireless_expanders.Theorems.measured);
            ("holds", J.Bool c.Wireless_expanders.Theorems.holds);
          ])
      checks;
  let failures = List.filter (fun c -> not c.Wireless_expanders.Theorems.holds) checks in
  List.iter
    (fun c -> say obs "  %s\n" (Format.asprintf "%a" Wireless_expanders.Theorems.pp_check c))
    failures;
  say obs "%d/%d claims hold\n" (List.length checks - List.length failures) (List.length checks);
  event obs "claim.summary"
    [
      ("holds", J.Int (List.length checks - List.length failures));
      ("total", J.Int (List.length checks));
    ];
  if failures = [] then 0 else 1

(* ---- bench record / diff ---- *)

module Report = Obs.Report

let cmd_bench_record obs quick repeats only force out =
  if Sys.file_exists out && not force then begin
    (* Fail before any experiment runs: clobbering a committed baseline by
       accident costs a re-record, so overwriting is opt-in. *)
    Printf.eprintf "bench record: %s exists; pass --force to overwrite it\n" out;
    1
  end
  else begin
  (* Metrics always on: the report embeds per-experiment snapshots. Memgc
     too — the per-experiment alloc block is what the alloc gate diffs. *)
  Obs.Metrics.enable ();
  Obs.Memgc.enable ();
  match Wx_bench.Runner.run ?only ~repeats ~quick () with
  | Error msg ->
      (* No experiment ran, so the registry holds nothing to report. *)
      Obs.Metrics.disable ();
      Printf.eprintf "%s\n" msg;
      1
  | Ok outcomes ->
      let r = Wx_bench.Runner.report ~quick ~repeats outcomes in
      Report.save out r;
      say obs "\nwrote %s (%d experiments, %d repeat%s, jobs %d, quick %b)\n" out
        (List.length r.Report.entries)
        repeats
        (if repeats = 1 then "" else "s")
        r.Report.jobs quick;
      event obs "bench.recorded"
        [
          ("path", J.String out);
          ("experiments", J.Int (List.length r.Report.entries));
          ("repeats", J.Int repeats);
          ("jobs", J.Int r.Report.jobs);
          ("quick", J.Bool quick);
        ];
      0
  end

let provenance_line (r : Report.t) =
  Printf.sprintf "%s (seed %d, jobs %d, repeats %d, quick %b%s)" r.Report.generated
    r.Report.seed r.Report.jobs r.Report.repeats r.Report.quick
    (match List.assoc_opt "git_commit" r.Report.provenance with
    | Some c when c <> "unknown" ->
        ", commit " ^ String.sub c 0 (min 12 (String.length c))
    | _ -> "")

(* One line per experiment that carries a utilization block on either side:
   busy fraction and mean idle tail, old -> new, so a diff shows scheduling
   drift (e.g. skewed sharding getting worse) next to the verdicts. *)
let print_util_deltas obs deltas =
  let util = function Some (e : Report.entry) -> e.Report.util | None -> None in
  let interesting =
    List.filter
      (fun (d : Report.delta) -> util d.Report.d_old <> None || util d.Report.d_new <> None)
      deltas
  in
  if interesting <> [] then begin
    let t =
      T.create
        [
          "experiment"; "busy frac (old)"; "busy frac (new)"; "idle tail ms (old)";
          "idle tail ms (new)"; "pool runs (new)";
        ]
    in
    let busy = function
      | None -> "-"
      | Some (u : Report.util) -> T.ff ~dec:3 u.Report.ut_busy_frac
    in
    let tail = function
      | None -> "-"
      | Some (u : Report.util) -> T.ff ~dec:2 u.Report.ut_idle_tail_ms
    in
    let runs = function None -> "-" | Some (u : Report.util) -> T.fi u.Report.ut_runs in
    List.iter
      (fun (d : Report.delta) ->
        T.add_row t
          [
            d.Report.d_id; busy (util d.Report.d_old); busy (util d.Report.d_new);
            tail (util d.Report.d_old); tail (util d.Report.d_new); runs (util d.Report.d_new);
          ])
      interesting;
    say obs "\n-- pool utilization (informational, never gated) --\n";
    say obs "%s" (T.render t)
  end

(* Exit codes: 0 clean (or --soft), 1 regression (wall or alloc by
   default; alloc only under --alloc-only), 2 malformed/unreadable report
   — so CI can treat "slower" and "not a report" differently. *)
let cmd_bench_diff obs alloc_only soft old_path new_path =
  match (Report.load old_path, Report.load new_path) with
  | Error m, _ | _, Error m ->
      Printf.eprintf "bench diff: malformed report: %s\n" m;
      2
  | Ok old_, Ok new_ ->
      say obs "old: %s\nnew: %s\n" (provenance_line old_) (provenance_line new_);
      List.iter
        (fun w -> Printf.eprintf "warning: %s\n" w)
        (Report.compat_warnings ~old_ ~new_);
      let deltas = Report.diff ~old_ ~new_ in
      let t =
        T.create
          [
            "experiment"; "old median (s)"; "new median (s)"; "ratio"; "verdict";
            "old minor (w)"; "new minor (w)"; "alloc";
          ]
      in
      let verdict_cell = function
        | None -> "-"
        | Some (j : Report.judgment) ->
            Report.verdict_name j.Report.verdict
            ^ if j.Report.note = "" then "" else " (" ^ j.Report.note ^ ")"
      in
      List.iter
        (fun (d : Report.delta) ->
          let w = d.Report.wall in
          T.add_row t
            [
              d.Report.d_id;
              T.ff ~dec:3 w.Report.old_median;
              T.ff ~dec:3 w.Report.new_median;
              T.ff ~dec:2 w.Report.ratio;
              verdict_cell (Some w);
              T.ff ~dec:0 (Report.minor_words d.Report.d_old);
              T.ff ~dec:0 (Report.minor_words d.Report.d_new);
              verdict_cell d.Report.alloc;
            ];
          event obs "bench.delta"
            ([
               ("id", J.String d.Report.d_id);
               ("verdict", J.String (Report.verdict_name w.Report.verdict));
               ("old_median_s", J.Float w.Report.old_median);
               ("new_median_s", J.Float w.Report.new_median);
               ("ratio", J.Float w.Report.ratio);
             ]
            @
            match d.Report.alloc with
            | None -> []
            | Some j ->
                [
                  ("alloc_verdict", J.String (Report.verdict_name j.Report.verdict));
                  ("old_minor_words", J.Float j.Report.old_median);
                  ("new_minor_words", J.Float j.Report.new_median);
                  ("alloc_ratio", J.Float j.Report.ratio);
                ]))
        deltas;
      say obs "%s" (T.render t);
      print_util_deltas obs deltas;
      if Report.alloc_skipped deltas then
        Printf.eprintf
          "warning: alloc verdict skipped where a side lacks an alloc block (Memgc off); \
           wall-time verdicts are unaffected\n";
      let wall_regs = Report.regressions Report.Wall deltas in
      let alloc_regs = Report.regressions Report.Alloc deltas in
      let report_regs regs what excuse =
        if regs <> [] then
          Printf.eprintf "%d experiment%s regressed on %s: %s%s\n" (List.length regs)
            (if List.length regs = 1 then "" else "s")
            what
            (String.concat ", " (List.map (fun (d : Report.delta) -> d.Report.d_id) regs))
            excuse
      in
      report_regs wall_regs "wall time" (if alloc_only then " (not failing on these)" else "");
      report_regs alloc_regs "allocation" "";
      let failing = if alloc_only then alloc_regs else wall_regs @ alloc_regs in
      let code = if failing = [] || soft then 0 else 1 in
      (* One machine-readable summary event closes every diff: CI and the
         ledger tooling read the verdict here instead of scraping stderr. *)
      let ids l = J.List (List.map (fun (d : Report.delta) -> J.String d.Report.d_id) l) in
      event obs "bench.verdict"
        [
          ("wall_regressions", ids wall_regs);
          ("alloc_regressions", ids alloc_regs);
          ("failing", ids failing);
          ("soft", J.Bool soft);
          ("exit_code", J.Int code);
        ];
      if failing = [] then begin
        let pct m = 100.0 *. (Report.rule m).Report.tolerance in
        say obs "no %sregressions (wall tolerance %.0f%%, floor %.0fms; alloc tolerance %.1f%%)\n"
          (if alloc_only then "allocation " else "")
          (pct Report.Wall) (1e3 *. Report.min_wall_s) (pct Report.Alloc)
      end
      else if soft then Printf.eprintf "(--soft: reporting only, not failing)\n";
      code

(* ---- bench history (perf-trajectory ledger) ---- *)

module Ledger = Obs.Ledger

let default_ledger = "bench/ledger.ndjson"
let short_commit c = if String.length c > 10 then String.sub c 0 10 else c

let metric_fmt metric v =
  if Float.is_nan v then "-"
  else match metric with Report.Wall -> T.ff ~dec:3 v | Report.Alloc -> T.ff ~dec:0 v

(* Digest one report into the ledger. A re-record at the same commit
   replaces the old entry (Ledger.append), so running this in CI on every
   push keeps exactly one line per commit. Exit 2 on a malformed report or
   ledger — never silently drop history. *)
let cmd_history_append obs ledger_path report_path =
  match Report.load report_path with
  | Error m ->
      Printf.eprintf "bench history append: malformed report: %s\n" m;
      2
  | Ok r -> (
      let existing = if Sys.file_exists ledger_path then Ledger.load ledger_path else Ok [] in
      match existing with
      | Error m ->
          Printf.eprintf "bench history append: malformed ledger: %s\n" m;
          2
      | Ok entries ->
          let entry = Ledger.digest r in
          let replaced =
            entry.Ledger.l_commit <> "unknown"
            && List.exists
                 (fun (e : Ledger.entry) -> e.Ledger.l_commit = entry.Ledger.l_commit)
                 entries
          in
          let entries' = Ledger.append entries entry in
          Ledger.save ledger_path entries';
          say obs "%s %s (%s%s, %d experiment%s) -> %s (%d entr%s)\n"
            (if replaced then "replaced" else "appended")
            (short_commit entry.Ledger.l_commit)
            entry.Ledger.l_generated
            (if entry.Ledger.l_dirty then ", dirty" else "")
            (List.length entry.Ledger.l_exps)
            (if List.length entry.Ledger.l_exps = 1 then "" else "s")
            ledger_path (List.length entries')
            (if List.length entries' = 1 then "y" else "ies");
          event obs "history.append"
            [
              ("ledger", J.String ledger_path);
              ("commit", J.String entry.Ledger.l_commit);
              ("dirty", J.Bool entry.Ledger.l_dirty);
              ("replaced", J.Bool replaced);
              ("entries", J.Int (List.length entries'));
            ];
          0)

(* Longitudinal view of one metric: a value series per experiment across
   every ledger entry, with a sparkline so a slow drift is visible at a
   glance in a terminal. *)
let cmd_history_show obs metric exp_filter ledger_path =
  match Ledger.load ledger_path with
  | Error m ->
      Printf.eprintf "bench history show: %s\n" m;
      2
  | Ok [] ->
      say obs "empty ledger: %s\n" ledger_path;
      0
  | Ok entries ->
      let et =
        T.create
          [ "#"; "commit"; "dirty"; "generated"; "seed"; "quick"; "jobs"; "repeats"; "exps" ]
      in
      List.iteri
        (fun i (e : Ledger.entry) ->
          T.add_row et
            [
              T.fi i;
              short_commit e.Ledger.l_commit;
              (if e.Ledger.l_dirty then "yes" else "no");
              e.Ledger.l_generated;
              T.fi e.Ledger.l_seed;
              (if e.Ledger.l_quick then "yes" else "no");
              T.fi e.Ledger.l_jobs;
              T.fi e.Ledger.l_repeats;
              T.fi (List.length e.Ledger.l_exps);
            ])
        entries;
      say obs "-- ledger %s (%d entr%s, oldest first) --\n%s" ledger_path (List.length entries)
        (if List.length entries = 1 then "y" else "ies")
        (T.render et);
      let ids =
        match exp_filter with Some id -> [ id ] | None -> Ledger.exp_ids entries
      in
      let unit_name =
        match metric with Report.Wall -> "median wall (s)" | Report.Alloc -> "minor words"
      in
      let mt = T.create [ "experiment"; "n"; "latest"; "min"; "max"; "oldest..newest" ] in
      let add_series id =
        let s = Ledger.series metric ~id entries in
        let known = List.filter (fun v -> not (Float.is_nan v)) s in
        let latest = match List.rev known with v :: _ -> v | [] -> Float.nan in
        T.add_row mt
          [
            id;
            T.fi (List.length known);
            metric_fmt metric latest;
            (match known with
            | [] -> "-"
            | _ -> metric_fmt metric (List.fold_left Float.min infinity known));
            (match known with
            | [] -> "-"
            | _ -> metric_fmt metric (List.fold_left Float.max neg_infinity known));
            Ledger.sparkline s;
          ];
        event obs "history.series"
          [
            ("id", J.String id);
            ("metric", J.String (Report.metric_name metric));
            ("values", J.List (List.map (fun v -> J.Float v) s));
          ]
      in
      List.iter add_series ids;
      say obs "\n-- %s per experiment (%s) --\n%s" (Report.metric_name metric) unit_name
        (T.render mt);
      0

(* Trend gate: the newest ledger entry judged against the window that
   precedes it, with the diff's own rule per metric (see Ledger.gate).
   Exit codes mirror bench diff: 0 clean (or --soft), 1 a trend
   regression, 2 malformed ledger. *)
let cmd_history_gate obs soft ledger_path =
  match Ledger.load ledger_path with
  | Error m ->
      Printf.eprintf "bench history gate: %s\n" m;
      2
  | Ok [] ->
      say obs "empty ledger %s: nothing to gate\n" ledger_path;
      0
  | Ok entries ->
      let trends = Ledger.gate entries in
      let newest = List.nth entries (List.length entries - 1) in
      let prior = min (Ledger.window - 1) (List.length entries - 1) in
      say obs "gating %s (%s%s) against the %d preceding entr%s of %s\n"
        (short_commit newest.Ledger.l_commit)
        newest.Ledger.l_generated
        (if newest.Ledger.l_dirty then ", dirty" else "")
        prior
        (if prior = 1 then "y" else "ies")
        ledger_path;
      let t =
        T.create
          [ "experiment"; "metric"; "baseline"; "latest"; "ratio"; "verdict"; "window" ]
      in
      List.iter
        (fun (tr : Ledger.trend) ->
          let j = tr.Ledger.t_judgment and note = Ledger.note tr in
          let field f = match j with Some j -> f j | None -> Float.nan in
          let baseline = field (fun j -> j.Report.old_median)
          and latest = List.nth tr.Ledger.t_series (List.length tr.Ledger.t_series - 1)
          and ratio = field (fun j -> j.Report.ratio) in
          T.add_row t
            [
              tr.Ledger.t_exp;
              Report.metric_name tr.Ledger.t_metric;
              metric_fmt tr.Ledger.t_metric baseline;
              metric_fmt tr.Ledger.t_metric latest;
              (if Float.is_nan ratio then "-" else T.ff ~dec:2 ratio);
              (match j with
              | None -> "- (" ^ note ^ ")"
              | Some j ->
                  Report.verdict_name j.Report.verdict
                  ^ if note = "" then "" else " (" ^ note ^ ")");
              Ledger.sparkline tr.Ledger.t_series;
            ];
          event obs "history.trend"
            [
              ("id", J.String tr.Ledger.t_exp);
              ("metric", J.String (Report.metric_name tr.Ledger.t_metric));
              ( "verdict",
                match j with
                | None -> J.Null
                | Some j -> J.String (Report.verdict_name j.Report.verdict) );
              ("baseline", J.Float baseline);
              ("latest", J.Float latest);
              ("ratio", J.Float ratio);
              ("note", J.String note);
            ])
        trends;
      say obs "%s" (T.render t);
      let regs = Ledger.regressions trends in
      let code = if regs = [] || soft then 0 else 1 in
      event obs "history.verdict"
        [
          ("ledger", J.String ledger_path);
          ("entries", J.Int (List.length entries));
          ("window", J.Int Ledger.window);
          ( "regressions",
            J.List
              (List.map
                 (fun (tr : Ledger.trend) ->
                   J.String (tr.Ledger.t_exp ^ "/" ^ Report.metric_name tr.Ledger.t_metric))
                 regs) );
          ("soft", J.Bool soft);
          ("exit_code", J.Int code);
        ];
      if regs <> [] then begin
        Printf.eprintf "%d trend regression%s: %s\n" (List.length regs)
          (if List.length regs = 1 then "" else "s")
          (String.concat ", "
             (List.map
                (fun (tr : Ledger.trend) ->
                  Printf.sprintf "%s (%s)" tr.Ledger.t_exp (Report.metric_name tr.Ledger.t_metric))
                regs));
        if soft then Printf.eprintf "(--soft: reporting only, not failing)\n"
      end
      else
        say obs "no trend regressions over the last %d entr%s\n" (prior + 1)
          (if prior = 0 then "y" else "ies");
      code

(* ---- prof ---- *)

(* Flattened hottest-spans view: self cost (cost inside the span but outside
   any recorded child) is what ranks, since child cost ranks on its own row.
   The ranking key is self time, or self minor words under --alloc. *)
type span_row = {
  sr_path : string;
  sr_calls : int;
  sr_dur_ns : int;
  sr_self_ns : int;
  sr_minor : int;
  sr_self_minor : int;
  sr_work : int;  (* Work units attributed to the span (inclusive of children) *)
}

let hottest_spans ~by_alloc =
  let rows = ref [] in
  let rec go prefix (s : Obs.Span.t) =
    let path = if prefix = "" then s.Obs.Span.name else prefix ^ "/" ^ s.Obs.Span.name in
    rows :=
      {
        sr_path = path;
        sr_calls = s.Obs.Span.calls;
        sr_dur_ns = s.Obs.Span.dur_ns;
        sr_self_ns = Obs.Span.self_ns s;
        sr_minor = s.Obs.Span.minor_words;
        sr_self_minor = Obs.Span.self_minor_words s;
        sr_work = s.Obs.Span.work_units;
      }
      :: !rows;
    List.iter (go path) (Obs.Span.children s)
  in
  List.iter (go "") (Obs.Span.root_spans ());
  let key r = if by_alloc then r.sr_self_minor else r.sr_self_ns in
  List.sort (fun a b -> compare (key b) (key a)) !rows

let print_hottest ~alloc ~top =
  let rows = hottest_spans ~by_alloc:alloc in
  let roots = Obs.Span.root_spans () in
  let total_ns = List.fold_left (fun acc s -> acc + s.Obs.Span.dur_ns) 0 roots in
  let total_minor = List.fold_left (fun acc s -> acc + s.Obs.Span.minor_words) 0 roots in
  let pct self total =
    if total = 0 then "-"
    else Printf.sprintf "%.1f%%" (100.0 *. float_of_int self /. float_of_int total)
  in
  (* Throughput of the span over its total (inclusive) duration: work counters
     move in whichever frame is innermost, so self time would undercount.
     Spans with no attributed work, or a zero/negative clock delta, render
     "-" rather than a meaningless number. *)
  let units_per_s r =
    if r.sr_work = 0 || r.sr_dur_ns <= 0 then "-"
    else Printf.sprintf "%.3g" (float_of_int r.sr_work /. Obs.Clock.ns_to_s r.sr_dur_ns)
  in
  let t =
    T.create
      (if alloc then
         [ "span"; "calls"; "total (words)"; "self (words)"; "self %"; "self (ms)"; "units/s" ]
       else [ "span"; "calls"; "total (ms)"; "self (ms)"; "self %"; "units/s" ])
  in
  List.iteri
    (fun i r ->
      if i < top then
        T.add_row t
          (if alloc then
             [
               r.sr_path; T.fi r.sr_calls; T.fi r.sr_minor; T.fi r.sr_self_minor;
               pct r.sr_self_minor total_minor;
               T.ff ~dec:3 (Obs.Clock.ns_to_ms r.sr_self_ns);
               units_per_s r;
             ]
           else
             [
               r.sr_path; T.fi r.sr_calls;
               T.ff ~dec:3 (Obs.Clock.ns_to_ms r.sr_dur_ns);
               T.ff ~dec:3 (Obs.Clock.ns_to_ms r.sr_self_ns);
               pct r.sr_self_ns total_ns;
               units_per_s r;
             ]))
    rows;
  Printf.printf "\n-- hottest spans (top %d of %d, by self %s) --\n"
    (min top (List.length rows))
    (List.length rows)
    (if alloc then "allocation" else "time");
  T.print t

let cmd_prof out top alloc rest inner_group =
  match rest with
  | [] ->
      Printf.eprintf
        "usage: wx prof [--out FILE] [--top K] [--alloc] -- <subcommand> [args]\n\
         (the '--' keeps the inner command's own flags out of prof's)\n";
      2
  | _ ->
      Obs.Metrics.enable ();
      Obs.Trace_export.enable ();
      if alloc then begin
        (* Per-span GC attribution plus the gc.heap counter track; the major
           alarm rides along so chrome://tracing shows major-cycle samples.
           Never done under bench record — the alarm itself allocates. *)
        Obs.Memgc.enable ();
        Obs.Memgc.install_alarm ()
      end;
      let argv = Array.of_list ("wx" :: rest) in
      let code = Cmdliner.Cmd.eval' ~argv inner_group in
      Obs.Trace_export.write out;
      (* A failed inner command still gets its artifacts (the partial trace
         often shows where it died) but not the span table — the spans of an
         aborted run rank noise — and prof's exit status is the inner one,
         so `wx prof -- cmd` gates exactly like `wx cmd` in scripts. *)
      if code = 0 then begin
        print_hottest ~alloc ~top;
        Printf.printf "\nwrote %s (load in chrome://tracing, ui.perfetto.dev or speedscope)\n"
          out
      end
      else
        Printf.eprintf
          "prof: inner command failed (exit %d); wrote %s; hottest-span table suppressed\n"
          code out;
      code

(* Differential profile over two trace files: where did the self time go
   between OLD and NEW? Exit codes mirror bench diff: 0 clean (or --soft),
   1 a span regressed beyond both thresholds, 2 not a readable trace. *)
let cmd_prof_diff top soft old_path new_path =
  match (Obs.Prof.load old_path, Obs.Prof.load new_path) with
  | Error m, _ | _, Error m ->
      Printf.eprintf "prof diff: malformed trace: %s\n" m;
      2
  | Ok old_rows, Ok new_rows ->
      let deltas =
        Obs.Prof.diff_profiles ~old_:(Obs.Prof.profile old_rows)
          ~new_:(Obs.Prof.profile new_rows)
      in
      let regressed = Obs.Prof.pdelta_regressed in
      let t =
        T.create
          [
            "span"; "calls (old)"; "calls (new)"; "self old (ms)"; "self new (ms)";
            "Δself (ms)"; "Δself minor (w)"; "verdict";
          ]
      in
      List.iteri
        (fun i (d : Obs.Prof.pdelta) ->
          if i < top then
            T.add_row t
              [
                d.Obs.Prof.p_name;
                T.fi d.Obs.Prof.p_calls_old;
                T.fi d.Obs.Prof.p_calls_new;
                T.ff ~dec:3 (1e-3 *. d.Obs.Prof.p_old_self_us);
                T.ff ~dec:3 (1e-3 *. d.Obs.Prof.p_new_self_us);
                T.ff ~dec:3 (1e-3 *. d.Obs.Prof.p_delta_self_us);
                T.ff ~dec:0 d.Obs.Prof.p_delta_self_minor;
                (if regressed d then "regression"
                 else if d.Obs.Prof.p_delta_self_us < 0.0 then "improvement"
                 else "within-noise");
              ])
        deltas;
      Printf.printf "-- self-time deltas, regressions first (top %d of %d) --\n"
        (min top (List.length deltas))
        (List.length deltas);
      T.print t;
      let regs = List.filter regressed deltas in
      if regs = [] then begin
        Printf.printf
          "no span regressions (self-time tolerance %.0f%%, absolute floor %.1fms)\n"
          (100.0 *. Obs.Prof.default_self_tolerance)
          (1e-3 *. Obs.Prof.default_min_delta_us);
        0
      end
      else begin
        Printf.eprintf "%d span%s regressed on self time: %s\n" (List.length regs)
          (if List.length regs = 1 then "" else "s")
          (String.concat ", " (List.map (fun (d : Obs.Prof.pdelta) -> d.Obs.Prof.p_name) regs));
        if soft then begin
          Printf.eprintf "(--soft: reporting only, not failing)\n";
          0
        end
        else 1
      end

(* ---- cmdliner wiring ---- *)

open Cmdliner

let family_arg = Arg.(required & pos 0 (some family_conv) None & info [] ~docv:"FAMILY")
let size_arg = Arg.(value & pos 1 int 64 & info [] ~docv:"SIZE")
let seed_arg = Arg.(value & opt int base_seed & info [ "seed" ] ~docv:"SEED")
let alpha_arg = Arg.(value & opt float 0.5 & info [ "alpha" ] ~docv:"ALPHA")
let solver_arg = Arg.(value & opt string "all" & info [ "solver" ] ~docv:"SOLVER")
let protocol_arg = Arg.(value & opt string "decay" & info [ "protocol" ] ~docv:"PROTOCOL")
let seeds_arg = Arg.(value & opt int 10 & info [ "seeds" ] ~docv:"K")

let json_arg =
  let doc = "Emit machine-readable NDJSON events on stdout; human text moves to stderr." in
  Arg.(value & flag & info [ "json" ] ~doc)

let metrics_arg =
  let doc = "Collect library metrics (counters, timers, spans) and report them at exit." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the parallel expansion measures (default: $(b,WX_JOBS) if set, else \
     the runtime's recommended domain count). Results are identical at any value."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let expose_arg =
  let doc =
    "Serve the live metrics registry over localhost HTTP on $(docv) (0 picks an ephemeral \
     port; $(b,WX_EXPOSE)=PORT does the same). GET /metrics returns Prometheus text \
     exposition. Never perturbs computed values, witnesses, or the allocation gate."
  in
  Arg.(value & opt (some int) None & info [ "expose" ] ~docv:"PORT" ~doc)

(* Lift a command body (a term producing [obs -> int]) into one that carries
   the observability and parallelism flags and runs under the shared
   wrapper. *)
let with_obs cmd_name term =
  let open Term in
  const (fun json metrics jobs expose f -> run_cmd cmd_name json metrics jobs expose f)
  $ json_arg $ metrics_arg $ jobs_arg $ expose_arg $ term

let info_cmd =
  Cmd.v (Cmd.info "info" ~doc:"Graph statistics for a generated instance")
    (with_obs "info"
       Term.(const (fun family size seed obs -> cmd_info obs family size seed)
             $ family_arg $ size_arg $ seed_arg))

let expansion_cmd =
  Cmd.v (Cmd.info "expansion" ~doc:"Compute β, βw, βu (exact or witness certificates)")
    (with_obs "expansion"
       Term.(const (fun family size seed alpha obs -> cmd_expansion obs family size seed alpha)
             $ family_arg $ size_arg $ seed_arg $ alpha_arg))

let spokesmen_cmd =
  Cmd.v (Cmd.info "spokesmen" ~doc:"Run spokesmen-election solvers on a random frontier")
    (with_obs "spokesmen"
       Term.(const (fun family size seed solver obs -> cmd_spokesmen obs family size seed solver)
             $ family_arg $ size_arg $ seed_arg $ solver_arg))

let broadcast_cmd =
  Cmd.v (Cmd.info "broadcast" ~doc:"Simulate radio broadcast (Monte-Carlo)")
    (with_obs "broadcast"
       Term.(const (fun family size seed protocol seeds obs ->
                 cmd_broadcast obs family size seed protocol seeds)
             $ family_arg $ size_arg $ seed_arg $ protocol_arg $ seeds_arg))

let core_cmd =
  Cmd.v (Cmd.info "core" ~doc:"Core-graph property report (Lemma 4.4)")
    (with_obs "core"
       Term.(const (fun s obs -> cmd_core obs s) $ Arg.(value & pos 0 int 64 & info [] ~docv:"S")))

let dot_cmd =
  Cmd.v (Cmd.info "dot" ~doc:"Emit the generated graph as Graphviz DOT on stdout")
    (with_obs "dot"
       Term.(const (fun family size seed obs -> cmd_dot obs family size seed)
             $ family_arg $ size_arg $ seed_arg))

let verify_paper_cmd =
  let quick = Arg.(value & flag & info [ "quick" ]) in
  Cmd.v
    (Cmd.info "verify-paper"
       ~doc:"Re-check every quantitative claim of the paper; exit 1 on any violation")
    (with_obs "verify-paper"
       Term.(const (fun quick seed obs -> cmd_verify_paper obs quick seed) $ quick $ seed_arg))

let schedule_cmd =
  Cmd.v (Cmd.info "schedule" ~doc:"Synthesize and certify an offline broadcast schedule")
    (with_obs "schedule"
       Term.(const (fun family size seed obs -> cmd_schedule obs family size seed)
             $ family_arg $ size_arg $ seed_arg))

let arboricity_cmd =
  Cmd.v (Cmd.info "arboricity" ~doc:"Exact arboricity via parametric flow")
    (with_obs "arboricity"
       Term.(const (fun family size seed obs -> cmd_arboricity obs family size seed)
             $ family_arg $ size_arg $ seed_arg))

(* ---- bench / prof wiring ---- *)

let bench_record_cmd =
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Shrunken parameter grids.") in
  let repeats =
    Arg.(value & opt int 3
         & info [ "repeats"; "r" ] ~docv:"K"
             ~doc:"Wall-time samples per experiment (median-of-K is what diff compares).")
  in
  let only =
    Arg.(value & opt (some string) None
         & info [ "e"; "experiment" ] ~docv:"ID" ~doc:"Record a single experiment.")
  in
  let force =
    Arg.(value & flag
         & info [ "force"; "f" ] ~doc:"Overwrite $(b,--out) if it already exists.")
  in
  let out =
    Arg.(value & opt string "bench/baseline.json"
         & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Report destination.")
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:"Run the experiment zoo and write a wx-bench/4 report (the committed baseline); \
             refuses to overwrite an existing file without --force")
    (with_obs "bench.record"
       Term.(const (fun quick repeats only force out obs ->
                 cmd_bench_record obs quick repeats only force out)
             $ quick $ repeats $ only $ force $ out))

let bench_diff_cmd =
  let alloc_only =
    Arg.(value & flag
         & info [ "alloc-only" ]
             ~doc:"Fail (exit 1) only on allocation regressions; wall-time regressions are \
                   still reported but do not affect the exit code. Lets CI run a hard alloc \
                   gate next to a soft wall-time gate.")
  in
  let soft =
    Arg.(value & flag
         & info [ "soft" ]
             ~doc:"Report regressions but exit 0 (CI soft gate); malformed reports still exit 2.")
  in
  let old_path = Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD.json") in
  let new_path = Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW.json") in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Compare two wx-bench reports; exit 1 on a regression, 2 on a malformed report")
    (with_obs "bench.diff"
       Term.(const (fun alloc_only soft o n obs -> cmd_bench_diff obs alloc_only soft o n)
             $ alloc_only $ soft $ old_path $ new_path))

(* ---- bench history wiring ---- *)

let ledger_arg =
  Arg.(value & opt string default_ledger
       & info [ "ledger" ] ~docv:"FILE"
           ~doc:"Ledger file (wx-ledger/1 NDJSON, one entry per recorded commit).")

let bench_history_append_cmd =
  let report = Arg.(required & pos 0 (some string) None & info [] ~docv:"REPORT.json") in
  Cmd.v
    (Cmd.info "append"
       ~doc:"Digest one wx-bench report into the ledger (replacing any existing entry for the \
             same commit); exit 2 on a malformed report or ledger")
    (with_obs "bench.history.append"
       Term.(const (fun ledger report obs -> cmd_history_append obs ledger report)
             $ ledger_arg $ report))

let bench_history_show_cmd =
  let metric =
    Arg.(value
         & opt (enum [ ("wall", Report.Wall); ("alloc", Report.Alloc) ]) Report.Wall
         & info [ "metric"; "m" ] ~docv:"METRIC"
             ~doc:"Series to render: $(b,wall) (median seconds) or $(b,alloc) (minor words).")
  in
  let exp =
    Arg.(value & opt (some string) None
         & info [ "e"; "experiment" ] ~docv:"ID" ~doc:"Show a single experiment.")
  in
  Cmd.v
    (Cmd.info "show"
       ~doc:"Render the ledger: entries oldest-first, then one value series + sparkline per \
             experiment for the chosen metric; exit 2 on a malformed ledger")
    (with_obs "bench.history.show"
       Term.(const (fun metric exp ledger obs -> cmd_history_show obs metric exp ledger)
             $ metric $ exp $ ledger_arg))

let bench_history_gate_cmd =
  let soft =
    Arg.(value & flag
         & info [ "soft" ]
             ~doc:"Report trend regressions but exit 0 (CI soft gate); a malformed ledger \
                   still exits 2.")
  in
  Cmd.v
    (Cmd.info "gate"
       ~doc:"Judge the newest ledger entry against the preceding window (noise-aware wall \
             trend, deterministic alloc drift); exit 1 on a trend regression, 2 on a malformed \
             ledger")
    (with_obs "bench.history.gate"
       Term.(const (fun soft ledger obs -> cmd_history_gate obs soft ledger)
             $ soft $ ledger_arg))

let bench_history_cmd =
  Cmd.group
    (Cmd.info "history"
       ~doc:"Perf-trajectory ledger: append report digests, render series, gate trends")
    [ bench_history_append_cmd; bench_history_show_cmd; bench_history_gate_cmd ]

let bench_cmd =
  Cmd.group
    (Cmd.info "bench"
       ~doc:"Performance-trajectory tools: record baselines, diff reports, longitudinal history")
    [ bench_record_cmd; bench_diff_cmd; bench_history_cmd ]

let base_cmds =
  [
    info_cmd; expansion_cmd; spokesmen_cmd; broadcast_cmd; core_cmd; arboricity_cmd;
    schedule_cmd; verify_paper_cmd; dot_cmd;
  ]

let prof_diff_cmd =
  let top =
    Arg.(value & opt int 20 & info [ "top"; "k" ] ~docv:"K" ~doc:"Rows in the delta table.")
  in
  let soft =
    Arg.(value & flag
         & info [ "soft" ]
             ~doc:"Report span regressions but exit 0; a malformed trace still exits 2.")
  in
  let old_path = Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD.trace") in
  let new_path = Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW.trace") in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Differential profile of two Chrome-trace files (wx prof --out): per-span \
             self-time and self-allocation deltas, regressions first; exit 1 when a span \
             regressed beyond both thresholds, 2 on a malformed trace")
    Term.(const cmd_prof_diff $ top $ soft $ old_path $ new_path)

let prof_cmd =
  let out =
    Arg.(value & opt string "wx-trace.json"
         & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Chrome trace-event destination.")
  in
  let top =
    Arg.(value & opt int 12
         & info [ "top"; "k" ] ~docv:"K" ~doc:"Rows in the hottest-spans table.")
  in
  let alloc =
    Arg.(value & flag
         & info [ "alloc" ]
             ~doc:"Also attribute GC work: rank the hottest spans by self-allocation (minor \
                   words) and add gc.heap / gc.major counter tracks to the trace.")
  in
  let rest =
    Arg.(value & pos_all string []
         & info [] ~docv:"SUBCOMMAND"
             ~doc:"Inner wx invocation; put it after '--' so its flags reach it, e.g. \
                   $(b,wx prof -- expansion hypercube 16 --jobs 4).")
  in
  let inner_group = Cmd.group (Cmd.info "wx" ~doc:"(under wx prof)") base_cmds in
  (* A group with a default term: `wx prof diff A B` dispatches to the
     subcommand, while the documented `wx prof -- <cmd>` form still reaches
     the default (the `--` keeps the inner command name from being taken
     for a prof subcommand). *)
  Cmd.group
    ~default:
      Term.(const (fun out top alloc rest -> cmd_prof out top alloc rest inner_group)
            $ out $ top $ alloc $ rest)
    (Cmd.info "prof"
       ~doc:"Run a wx subcommand under Chrome tracing (write the trace and the hottest \
             spans), or diff two traces")
    [ prof_diff_cmd ]

let () =
  let doc = "wireless-expanders command-line tool" in
  exit (Cmd.eval' (Cmd.group (Cmd.info "wx" ~doc) (base_cmds @ [ bench_cmd; prof_cmd ])))
