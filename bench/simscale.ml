(* SIMSCALE — million-node radio simulation through the CSR engine.

   Five measurements on sparse G(n,m) instances at mean degree 8 (quick:
   n = 10^5; full: n = 10^6 — see EXPERIMENTS.md for the documented
   million-node run):

   1. Jobs-independence: Decay on a shared mid-size instance produces
      structurally equal outcomes (rounds, completion, informed count,
      collisions, frontier history) at jobs 1 and at the pool default.
   2. Alloc: once the network is saturated, a flood step and a Decay
      step at jobs=1 each allocate zero minor words (budgeted a constant
      few words for the [Gc.minor_words] float boxing of the probe itself)
      — the steady-state claim the acceptance gate names. Decay adds one
      RNG coin per vertex per round, so its check covers the RNG too.
   3. Throughput: steady-state flood rounds on the fully-informed network
      (all n seeded via [inform] — the saturated regime a sustained
      broadcast reaches), at jobs=1 and at the pool default, reported as
      absolute vertex-scans/sec on the table and as an informational row
      (every step credits Work.vertex_scans = n, so the experiment's rate
      also lands in wx-bench/4 and the ledger's simscale series).
   4. End-to-end: Decay from one source at scale n, informational
      rounds/sec and spread (gnm at mean degree 8 may strand isolated
      vertices, so near-complete spread is the check, not completion —
      the giant component is informed within ~100 rounds at n = 10^5).
   5. Pool dispatch: 200 flood rounds at jobs >= 2 on a fully-informed
      network of n = 2 range + 1 vertices gather every round, and so cross
      the pool every round (Decay's rounds push, serially, and never
      reach the pool). Its helper domains are spawned once per process and
      parked between calls, so the run may spawn at most jobs - 1 domains
      in total — a deterministic gate, unlike a wall-time bound. The cost
      of one empty dispatch (wake the helpers, wait for them) is reported
      as an informational row. *)

open Bench_common
module Clock = Wx_obs.Clock
module Memgc = Wx_obs.Memgc
module Pool = Wx_par.Pool

let timed f =
  let t0 = Clock.now_ns () in
  let v = f () in
  (v, Clock.ns_to_s (Clock.now_ns () - t0))

let per_sec units dt = if dt > 0.0 then float_of_int units /. dt else infinity

(* Steady-state alloc probe: run [steps] of [f] under Memgc and return the
   minor-word delta. The budget is a constant independent of the step
   count ([Gc.minor_words] boxes a float), so "< 16 words over 50 steps"
   certifies exactly zero per step. *)
let alloc_budget = 16.0
let alloc_steps = 50

let measure_steady_alloc f =
  let was = Memgc.is_enabled () in
  if not was then Memgc.enable ();
  Fun.protect
    ~finally:(fun () -> if not was then Memgc.disable ())
    (fun () ->
      let w0 = Memgc.own_minor_words () in
      for _ = 1 to alloc_steps do
        f ()
      done;
      Memgc.own_minor_words () -. w0)

let outcomes_equal (a : Sim.outcome) (b : Sim.outcome) =
  a.Sim.rounds = b.Sim.rounds
  && a.Sim.completed = b.Sim.completed
  && a.Sim.informed_final = b.Sim.informed_final
  && a.Sim.collisions = b.Sim.collisions
  && a.Sim.frontier_history = b.Sim.frontier_history

let run ~quick =
  let n = if quick then 100_000 else 1_000_000 in
  let m = 4 * n in
  let ok = ref 0 and total = ref 0 in
  let check claim ?instance ?predicted ?measured holds =
    incr total;
    if holds then incr ok;
    record ~claim ?instance ?predicted ?measured holds
  in
  let t = Table.create [ "run"; "n"; "rounds"; "wall s"; "vertex-scans/sec" ] in
  let row label rounds dt =
    Table.add_row t
      [
        label;
        Table.fi n;
        Table.fi rounds;
        Printf.sprintf "%.3f" dt;
        Printf.sprintf "%.3e" (per_sec (n * rounds) dt);
      ]
  in

  (* 1. jobs-independence on a shared mid-size instance *)
  let na = 20_000 and ma = 80_000 and cap = 400 in
  let ga = Gen.gnm (rng 61) na ma in
  let csr_j jobs =
    Sim_csr.run ~max_rounds:cap ~jobs ga ~source:0 Sim_csr.decay (Rng.create 2018)
  in
  let c1 = csr_j 1 in
  let jobs = Pool.default_jobs () in
  let cj = csr_j jobs in
  check "simscale: csr outcome independent of job count"
    ~instance:(Printf.sprintf "jobs 1 vs %d" jobs)
    ~predicted:(float_of_int c1.Sim.rounds)
    ~measured:(float_of_int cj.Sim.rounds)
    (outcomes_equal c1 cj);

  (* scale instance, built once (construction cost is not the claim) *)
  let g = Gen.gnm (rng 62) n m in
  let offsets = Graph.offsets g in
  check "simscale: csr layout matches graph"
    ~instance:(Printf.sprintf "gnm n=%d m=%d" n m)
    ~predicted:(float_of_int (2 * Graph.m g))
    ~measured:(float_of_int offsets.(n))
    (Array.length offsets = n + 1 && offsets.(n) = 2 * Graph.m g
    && Array.length (Graph.adjacency g) = offsets.(n));

  (* 2 + 3. steady state: seed every vertex via [inform] (the saturated
     all-transmit regime — flood alone deadlocks at a partial fixpoint
     because vertices with >= 2 informed neighbors hear collisions
     forever), then hold the step to the zero-alloc budget and time
     flood rounds. *)
  let saturated_csr ~jobs =
    let st = Sim_csr.create ~jobs g ~source:0 in
    for v = 0 to n - 1 do
      Sim_csr.inform st v
    done;
    ignore (Sim_csr.step st Sim_csr.flood (Rng.create 7));
    (st, Rng.create 7)
  in
  let st1, r1 = saturated_csr ~jobs:1 in
  let dw_csr = measure_steady_alloc (fun () -> ignore (Sim_csr.step st1 Sim_csr.flood r1)) in
  check "simscale: csr steady-state step allocates zero minor words"
    ~instance:(Printf.sprintf "%d saturated flood steps, jobs=1" alloc_steps)
    ~predicted:0.0 ~measured:dw_csr (dw_csr < alloc_budget);
  let dw_decay = measure_steady_alloc (fun () -> ignore (Sim_csr.step st1 Sim_csr.decay r1)) in
  check "simscale: csr steady-state decay step allocates zero minor words"
    ~instance:(Printf.sprintf "%d saturated decay steps, jobs=1" alloc_steps)
    ~predicted:0.0 ~measured:dw_decay (dw_decay < alloc_budget);
  let steps = if quick then 64 else 32 in
  let (), csr1_dt =
    timed (fun () ->
        for _ = 1 to steps do
          ignore (Sim_csr.step st1 Sim_csr.flood r1)
        done)
  in
  row "saturated flood (j=1)" steps csr1_dt;
  let stj, rj = saturated_csr ~jobs in
  let (), csrj_dt =
    timed (fun () ->
        for _ = 1 to steps do
          ignore (Sim_csr.step stj Sim_csr.flood rj)
        done)
  in
  row (Printf.sprintf "saturated flood (j=%d)" jobs) steps csrj_dt;
  (* Informational: recorded for the report, not counted in the verdict. *)
  record ~claim:"simscale: saturated flood vertex-scans/sec (informational)"
    ~instance:(Printf.sprintf "gnm n=%d, %d steady rounds, best of j=1/j=%d" n steps jobs)
    ~measured:(Float.max (per_sec (n * steps) csr1_dt) (per_sec (n * steps) csrj_dt))
    true;

  (* 4. end-to-end decay broadcast at scale (informational rate) *)
  let decay_cap = 150 in
  let out, decay_dt =
    timed (fun () ->
        Sim_csr.run ~max_rounds:decay_cap g ~source:0 Sim_csr.decay (Rng.create 99))
  in
  Table.add_row t
    [
      "decay e2e";
      Table.fi n;
      Table.fi out.Sim.rounds;
      Printf.sprintf "%.3f" decay_dt;
      Printf.sprintf "%.3e" (per_sec (n * out.Sim.rounds) decay_dt);
    ];
  (* Mean degree 8 leaves ~e^-8 of vertices isolated in expectation, so
     the spread check asks for 99% rather than completion. *)
  check "simscale: decay informs >= 99% at scale"
    ~instance:(Printf.sprintf "gnm n=%d, cap %d rounds" n decay_cap)
    ~predicted:(0.99 *. float_of_int n)
    ~measured:(float_of_int out.Sim.informed_final)
    (float_of_int out.Sim.informed_final >= 0.99 *. float_of_int n);
  Table.print t;

  (* 5. pool dispatch: spawn count over a pool-crossing run, and the
     wall cost of one empty parallel call *)
  let pjobs = max 2 jobs and range = 1024 and prounds = 200 in
  let gp = Gen.gnm (rng 63) ((2 * range) + 1) (8 * range) in
  let spawned_c = Metrics.counter "pool.domains_spawned" and runs_c = Metrics.counter "pool.runs" in
  let was = Metrics.is_enabled () in
  if not was then Metrics.enable ();
  let rounds, crossings, spawned, dispatch_dt =
    Fun.protect
      ~finally:(fun () -> if not was then Metrics.disable ())
      (fun () ->
        let before = Metrics.counter_value spawned_c and runs0 = Metrics.counter_value runs_c in
        let st = Sim_csr.create ~jobs:pjobs ~range gp ~source:0 in
        for v = 0 to Graph.n gp - 1 do
          Sim_csr.inform st v
        done;
        let r = Rng.create 5 in
        for _ = 1 to prounds do
          ignore (Sim_csr.step st Sim_csr.flood r)
        done;
        let spawned = Metrics.counter_value spawned_c - before in
        let crossings = Metrics.counter_value runs_c - runs0 in
        let (), dt =
          timed (fun () ->
              for _ = 1 to prounds do
                ignore
                  (Pool.parallel_reduce_ranges ~jobs:pjobs ~range:1 ~n:pjobs ~init:0
                     ~map:(fun ~lo ~hi:_ -> lo)
                     ~combine:( + ) ())
              done)
        in
        (Sim_csr.round st, crossings, spawned, dt))
  in
  check "simscale: pool-crossing rounds spawn at most jobs - 1 domains"
    ~instance:
      (Printf.sprintf "saturated flood n=%d range=%d jobs=%d, %d rounds" (Graph.n gp) range pjobs
         rounds)
    ~predicted:(float_of_int (pjobs - 1))
    ~measured:(float_of_int spawned)
    (* Every round must reach the pool, or the gate would hold vacuously. *)
    (rounds = prounds && crossings >= prounds && spawned <= pjobs - 1);
  let us_per_dispatch = 1e6 *. dispatch_dt /. float_of_int prounds in
  let td = Table.create [ "pool dispatch"; "jobs"; "calls"; "us/call"; "domains spawned" ] in
  Table.add_row td
    [
      "empty parallel call";
      Table.fi pjobs;
      Table.fi prounds;
      Printf.sprintf "%.1f" us_per_dispatch;
      Table.fi spawned;
    ];
  Table.print td;
  record ~claim:"simscale: pool dispatch us/call (informational)"
    ~instance:(Printf.sprintf "%d empty parallel_reduce_ranges calls, jobs=%d" prounds pjobs)
    ~measured:us_per_dispatch true;
  verdict !ok !total

let experiment =
  {
    id = "simscale";
    title = "million-node radio rounds on the CSR engine";
    claim = "scale engine validation + throughput (no paper claim)";
    run;
  }
