(* The radio engine: golden outcomes recorded from the retired scatter
   engine, equivalence with the independent reference simulator in
   Reference_radio (outcome, frontier history, collisions) at any job
   count, structural invariants of the flat layout, the sparse
   generators' degree/simplicity contracts, and the zero-allocation steady
   state the SIMSCALE bench gates on. *)

module Graph = Wx_graph.Graph
module Gen = Wx_graph.Gen
module Families = Wx_constructions.Families
module Sim = Wx_radio.Sim
module Sim_csr = Wx_radio.Sim_csr
module Ref = Reference_radio
module Rng = Wx_util.Rng
module Intvec = Wx_util.Intvec
module Memgc = Wx_obs.Memgc
open Common

let check_outcomes_equal ctx (a : Sim.outcome) (b : Sim.outcome) =
  check_int (ctx ^ ": rounds") a.Sim.rounds b.Sim.rounds;
  check_true (ctx ^ ": completed") (a.Sim.completed = b.Sim.completed);
  check_int (ctx ^ ": informed") a.Sim.informed_final b.Sim.informed_final;
  check_int (ctx ^ ": collisions") a.Sim.collisions b.Sim.collisions;
  check_true (ctx ^ ": history") (a.Sim.frontier_history = b.Sim.frontier_history)

(* --- golden pins ---

   Sim.run outcomes of the scatter engine this one replaced, recorded
   before it was deleted: every family at size 40 (instance rng 7), seed
   2018, 300-round cap (job-count independence is covered against the
   reference below). Columns: family, protocol, rounds, completed,
   informed, collisions, frontier history run-length encoded ("v*k" = k
   rounds at v). *)

let golden =
  [
    ("cycle", "flood", 300, false, 39, 281, "3 5 7 9 11 13 15 17 19 21 23 25 27 29 31 33 35 37 39*282");
    ("cycle", "decay", 28, true, 40, 29, "3 5 7 9 11 13 15 17 19 21 23 25 27 29 31 33 35 37 39*9 40");
    ("cycle", "decay-k3", 21, true, 40, 72, "3 5 7 9 11 13 15 17 19 21 23 25 27 29 31 33 35 37 39*2 40");
    ("cycle", "decay-global", 65, true, 40, 40, "3 4 5*5 7*2 8*2 9*3 11 12 14*5 16 18 19*5 21 23 24 25*4 27 28*6 30 31 32 33*4 35*7 37 38 39*6 40");
    ("cycle", "uniform-0.35", 53, true, 40, 70, "1*2 3 5 7*2 8*2 9*3 10*3 11 12 13 14 15 17*2 18 19*3 20*5 21 22*2 23*3 24*3 25 26 27 29 30*2 32 33*2 35*2 37 38 40");
    ("cycle", "spokesmen-cast", 20, true, 40, 5, "3 5 7 9 11 13 15 17 19 21 23 25 27 29 31 33 35 37 39 40");
    ("path", "flood", 39, true, 40, 0, "2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40");
    ("path", "decay", 39, true, 40, 23, "2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40");
    ("path", "decay-k3", 39, true, 40, 114, "2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40");
    ("path", "decay-global", 148, true, 40, 69, "2*2 3*5 4*7 5*2 6*5 7*7 8 9*6 10 11*6 12*3 13*4 14*3 15*4 16*7 17 18*3 19*3 20*2 21*5 22*2 23*5 24 25*6 26*5 27*2 28*7 29 30*6 31 32*6 33 34 35*5 36*7 37 38*6 39*7 40");
    ("path", "uniform-0.35", 123, true, 40, 193, "1*2 2 3*2 4*2 5*2 6*4 7*2 8*3 9*6 10 11*10 12 13*4 14 15*2 16*7 17 18*2 19*3 20 21*5 22*4 23*3 24*2 25 26*7 27*3 28*8 29*2 30*5 31*3 32*4 33 34 35*7 36*2 37 38*3 39*3 40");
    ("path", "spokesmen-cast", 39, true, 40, 0, "2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40");
    ("grid", "flood", 300, false, 23, 2952, "3 5 9 11 15 17 23*294");
    ("grid", "decay", 17, true, 36, 76, "3 5 9 11 18 23 29*2 30 32 35*6 36");
    ("grid", "decay-k3", 33, true, 36, 333, "3 5 9 11 16 21 27 28 30 32*2 33*3 35*18 36");
    ("grid", "decay-global", 34, true, 36, 58, "3 5*2 7 10*3 14 15 20*5 25 30 31*5 32*2 33*2 34*3 35*5 36");
    ("grid", "uniform-0.35", 19, true, 36, 72, "1*2 3 5 10 12 16 18 21 23 26 27 30 33 35*4 36");
    ("grid", "spokesmen-cast", 10, true, 36, 41, "3 5 10 14 19 25 30 33 35 36");
    ("torus", "flood", 300, false, 17, 4168, "5 9 17*298");
    ("torus", "decay", 10, true, 36, 72, "5 9 17 18 25 28 34*2 35 36");
    ("torus", "decay-k3", 17, true, 36, 178, "5 9 17 18 20 25*2 27 32*3 34*2 35*3 36");
    ("torus", "decay-global", 13, true, 36, 37, "5 10 13 23 24*3 27 29 33*2 34 36");
    ("torus", "uniform-0.35", 12, true, 36, 53, "1*2 5 11 15 20 27 29 30 34*2 36");
    ("torus", "spokesmen-cast", 6, true, 36, 24, "5 11 21 31 35 36");
    ("binary-tree", "flood", 4, true, 31, 0, "3 7 15 31");
    ("binary-tree", "decay", 4, true, 31, 4, "3 7 15 31");
    ("binary-tree", "decay-k3", 4, true, 31, 4, "3 7 15 31");
    ("binary-tree", "decay-global", 13, true, 31, 1, "3 5*2 7 9*2 19 23*5 31");
    ("binary-tree", "uniform-0.35", 12, true, 31, 13, "1*2 3 7 13 17 23 25 27 29*2 31");
    ("binary-tree", "spokesmen-cast", 4, true, 31, 0, "3 7 15 31");
    ("hypercube", "flood", 300, false, 6, 2990, "6*300");
    ("hypercube", "decay", 13, true, 32, 122, "6*2 10 14 18 20 23 27 29 30*2 31 32");
    ("hypercube", "decay-k3", 35, true, 32, 390, "6*2 10 13 17 22 23*2 24 27*2 29*3 30*8 31*12 32");
    ("hypercube", "decay-global", 18, true, 32, 76, "6 10 16 20*4 24 27 30*5 31*3 32");
    ("hypercube", "uniform-0.35", 12, true, 32, 67, "1*2 6 12 15 21 25 30 31*3 32");
    ("hypercube", "spokesmen-cast", 5, true, 32, 13, "6 12 22 30 32");
    ("complete-bipartite", "flood", 300, false, 21, 5681, "21*300");
    ("complete-bipartite", "decay", 25, true, 40, 318, "21*24 40");
    ("complete-bipartite", "decay-k3", 31, true, 40, 566, "21*30 40");
    ("complete-bipartite", "decay-global", 24, true, 40, 293, "21*23 40");
    ("complete-bipartite", "uniform-0.35", 300, false, 21, 5833, "1*2 21*298");
    ("complete-bipartite", "spokesmen-cast", 2, true, 40, 0, "21 40");
    ("random-3-regular", "flood", 300, false, 32, 2372, "4 10 18 28 32*296");
    ("random-3-regular", "decay", 7, true, 40, 24, "4 10 18 28 34 37 40");
    ("random-3-regular", "decay-k3", 9, true, 40, 64, "4 10 18 29 33 35 37*2 40");
    ("random-3-regular", "decay-global", 31, true, 40, 66, "4 8 12 17*4 28 34*6 35 39*15 40");
    ("random-3-regular", "uniform-0.35", 16, true, 40, 59, "1*2 4 8 12 18 24 29 33 37 38*2 39*3 40");
    ("random-3-regular", "spokesmen-cast", 5, true, 40, 8, "4 10 18 30 40");
    ("random-4-regular", "flood", 300, false, 29, 3273, "5 15 29*298");
    ("random-4-regular", "decay", 13, true, 40, 90, "5 15 29*2 33 34 38 39*5 40");
    ("random-4-regular", "decay-k3", 26, true, 40, 316, "5 15 29 30 31 32 33 34 35*2 38 39*14 40");
    ("random-4-regular", "decay-global", 12, true, 40, 33, "5 12 15 21 23*3 30 35 39*2 40");
    ("random-4-regular", "uniform-0.35", 17, true, 40, 108, "1*2 5 10 14 20 26 29 33 36 37 38*3 39*2 40");
    ("random-4-regular", "spokesmen-cast", 4, true, 40, 8, "5 15 32 40");
    ("random-6-regular", "flood", 300, false, 22, 5372, "7 17 21 22*297");
    ("random-6-regular", "decay", 8, true, 40, 92, "7 17 22 27 33 35 38 40");
    ("random-6-regular", "decay-k3", 300, false, 39, 4852, "7 17 22 27*2 30 32*2 33*4 34*4 35*6 36*29 37*4 38*104 39*141");
    ("random-6-regular", "decay-global", 11, true, 40, 56, "7 21 31*6 32 37 40");
    ("random-6-regular", "uniform-0.35", 14, true, 40, 153, "1*2 7 16 22 25 30 35 36*4 39 40");
    ("random-6-regular", "spokesmen-cast", 4, true, 40, 7, "7 22 36 40");
    ("margulis", "flood", 300, false, 19, 5068, "5 13 17 19*297");
    ("margulis", "decay", 20, true, 36, 251, "5 13 17 20 22 26 29 31 32*6 33*3 34*2 36");
    ("margulis", "decay-k3", 52, true, 36, 740, "5 13 17 21 25*2 26*4 27*3 28*6 30*5 32 33*2 34*15 35*9 36");
    ("margulis", "decay-global", 20, true, 36, 87, "5 12 18 22 26*4 30 31*2 32 34*4 35*3 36");
    ("margulis", "uniform-0.35", 18, true, 36, 194, "1*2 5 13 22 23 30 32 34*2 35*7 36");
    ("margulis", "spokesmen-cast", 4, true, 36, 7, "5 14 29 36");
    ("barabasi-albert", "flood", 300, false, 31, 2389, "11 30 31*298");
    ("barabasi-albert", "decay", 21, true, 40, 104, "11 30 31 34*3 35 36*2 37 39*10 40");
    ("barabasi-albert", "decay-k3", 142, true, 40, 1320, "11 30 31 34*2 35*3 36 37 38*9 39*122 40");
    ("barabasi-albert", "decay-global", 23, true, 40, 75, "11 28 31 34*2 37*4 39*13 40");
    ("barabasi-albert", "uniform-0.35", 10, true, 40, 47, "1*2 11 18 31 36 37 38 39 40");
    ("barabasi-albert", "spokesmen-cast", 4, true, 40, 9, "11 31 38 40");
    ("gnp", "flood", 300, false, 25, 4477, "8 23 25*298");
    ("gnp", "decay", 29, true, 40, 371, "8 23 25 29 33 36 37*5 38 39*16 40");
    ("gnp", "decay-k3", 300, false, 39, 4262, "8 23 25 28 31*2 33*3 35*4 36*23 37*18 38*57 39*189");
    ("gnp", "decay-global", 20, true, 40, 97, "8 19 26 30*4 31 32 33 36*5 37*2 39*2 40");
    ("gnp", "uniform-0.35", 74, true, 40, 1146, "1*2 8 23 27 31 33 34 35 36 37*3 38*12 39*48 40");
    ("gnp", "spokesmen-cast", 4, true, 40, 24, "8 25 38 40");
  ]

let rle a =
  let rec go i acc =
    if i >= Array.length a then List.rev acc
    else begin
      let j = ref i in
      while !j + 1 < Array.length a && a.(!j + 1) = a.(i) do
        incr j
      done;
      let k = !j - i + 1 in
      go (!j + 1)
        ((if k = 1 then string_of_int a.(i) else Printf.sprintf "%d*%d" a.(i) k) :: acc)
    end
  in
  String.concat " " (go 0 [])

let engine_protocols g =
  [
    Sim_csr.flood;
    Sim_csr.decay;
    Sim_csr.decay_with_phase_length 3;
    Sim_csr.decay_globally_phased;
    Sim_csr.uniform 0.35;
    Wx_radio.Spokesmen_cast.protocol g;
  ]

let test_golden_pins () =
  List.iter
    (fun f ->
      let g = f.Families.make (Rng.create 7) 40 in
      List.iter
        (fun p ->
          let name = p.Sim_csr.name in
          let _, _, rounds, completed, informed, collisions, history =
            List.find
              (fun (fam, proto, _, _, _, _, _) -> fam = f.Families.name && proto = name)
              golden
          in
          let o = Sim_csr.run ~max_rounds:300 ~jobs:1 g ~source:0 p (Rng.create 2018) in
          let ctx = f.Families.name ^ "/" ^ name in
          check_int (ctx ^ ": rounds") rounds o.Sim.rounds;
          check_true (ctx ^ ": completed") (completed = o.Sim.completed);
          check_int (ctx ^ ": informed") informed o.Sim.informed_final;
          check_int (ctx ^ ": collisions") collisions o.Sim.collisions;
          Alcotest.(check string) (ctx ^ ": history") history (rle o.Sim.frontier_history))
        (engine_protocols g))
    Families.all;
  check_int "every pin exercised" (List.length golden) (6 * List.length Families.all)

(* --- equivalence with the reference simulator --- *)

(* Engine/reference protocol pairs that must consume identical rng streams. *)
let protocol_pairs =
  [
    (Sim_csr.flood, Ref.flood);
    (Sim_csr.decay, Ref.decay ());
    (Sim_csr.decay_with_phase_length 3, Ref.decay ~k:3 ());
    (Sim_csr.decay_globally_phased, Ref.decay_global);
    (Sim_csr.uniform 0.35, Ref.uniform 0.35);
  ]

(* Cap the stalling protocols (flood never finishes on some families) so
   the sweep stays quick; both simulators get the same cap. *)
let cap = 400

let run_both g engine reference ~jobs ~range ~seed =
  let a = Ref.run ~max_rounds:cap g ~source:0 reference (Rng.create seed) in
  let b =
    Sim_csr.run ~max_rounds:cap ~jobs ~range g ~source:0 engine (Rng.create seed)
  in
  (a, b)

let test_equivalence_on_families () =
  List.iter
    (fun f ->
      let g = f.Families.make (rng ~salt:7 ()) 40 in
      List.iter
        (fun (engine, reference) ->
          List.iter
            (fun jobs ->
              (* range 7 forces multi-range sharding even on tiny graphs,
                 so jobs=4 actually crosses the pool. *)
              let a, b = run_both g engine reference ~jobs ~range:7 ~seed:2018 in
              check_outcomes_equal
                (Printf.sprintf "%s/%s/j%d" f.Families.name engine.Sim_csr.name jobs)
                a b)
            [ 1; 4 ])
        protocol_pairs)
    Families.all

let test_equivalence_qcheck =
  qcheck ~count:60 "csr = reference on random graphs"
    (fun g ->
      Graph.n g >= 1
      &&
      let a, b = run_both g Sim_csr.decay (Ref.decay ()) ~jobs:4 ~range:5 ~seed:99 in
      a = b)
    (arbitrary_graph ~lo:2 ~hi:32)

let test_replay_matches_reference () =
  (* Centralized fills go through the same scan: a synthesized schedule
     replayed on the engine and on the reference (as a fixed per-round
     transmit set) gives the same outcome. *)
  List.iter
    (fun f ->
      let g = f.Families.make (rng ~salt:8 ()) 30 in
      if Wx_graph.Traversal.is_connected g then begin
        let sch = Wx_radio.Schedule.synthesize (rng ~salt:9 ()) g ~source:0 in
        let rounds = sch.Wx_radio.Schedule.rounds in
        let len = Array.length rounds in
        let reference (s : Ref.state) v _ =
          s.Ref.round < len && Wx_util.Bitset.mem rounds.(s.Ref.round) v
        in
        let a = Ref.run ~max_rounds:len g ~source:0 reference (Rng.create 1) in
        let b =
          Sim_csr.run ~max_rounds:len g ~source:0 (Wx_radio.Schedule.replay sch)
            (Rng.create 1)
        in
        check_outcomes_equal f.Families.name a b;
        check_true (f.Families.name ^ ": schedule completes") b.Sim.completed
      end)
    Families.all

let test_jobs_invariance () =
  (* Larger sparse instance with the default range: identical outcomes at
     every job count, including ones crossing the real pool. *)
  let g = Gen.gnm (rng ~salt:3 ()) 3000 12000 in
  (* Cap the budget: a gnm instance with an isolated vertex never
     completes, and 4 job counts × the default 64n limit would dominate
     the suite's wall time. *)
  let run jobs =
    Sim_csr.run ~max_rounds:1500 ~jobs ~range:256 g ~source:0 Sim_csr.decay (Rng.create 42)
  in
  let base = run 1 in
  (* gnm at mean degree 8 may leave a handful of isolated vertices, so ask
     for near-complete spread rather than completion. *)
  check_true "decay informs nearly everyone" (base.Sim.informed_final > 2900);
  List.iter
    (fun jobs -> check_outcomes_equal (Printf.sprintf "jobs %d" jobs) base (run jobs))
    [ 2; 4; 7 ]

(* --- CSR layout invariants --- *)

let test_csr_structure () =
  (* The engine walks Graph.t's own rows; check them against the
     accessor view. *)
  let g = Gen.margulis 5 in
  let offsets = Graph.offsets g and adjacency = Graph.adjacency g in
  check_int "offsets length" (Graph.n g + 1) (Array.length offsets);
  check_int "packed length" (2 * Graph.m g) offsets.(Graph.n g);
  check_int "adjacency length" (2 * Graph.m g) (Array.length adjacency);
  for v = 0 to Graph.n g - 1 do
    check_int "degree" (Graph.degree g v) (offsets.(v + 1) - offsets.(v));
    let i = ref offsets.(v) in
    Graph.iter_neighbors g v (fun w ->
        check_int "neighbor" w adjacency.(!i);
        incr i)
  done;
  check_true "bytes accounts both arrays"
    (Graph.bytes g >= (Array.length offsets + Array.length adjacency) * (Sys.word_size / 8))

(* --- sparse generators --- *)

let test_gnm_invariants () =
  let g = Gen.gnm (rng ()) 500 1500 in
  check_int "n" 500 (Graph.n g);
  check_int "m exact" 1500 (Graph.m g);
  (* Simplicity is enforced by Graph.of_edges; spot-check degree sum. *)
  let degsum = ref 0 in
  Graph.iter_vertices g (fun v -> degsum := !degsum + Graph.degree g v);
  check_int "degree sum = 2m" 3000 !degsum;
  check_true "dense edge count rejected"
    (try
       ignore (Gen.gnm (rng ()) 4 7);
       false
     with Invalid_argument _ -> true)

let test_gnm_deterministic () =
  let a = Gen.gnm (Rng.create 5) 200 600 and b = Gen.gnm (Rng.create 5) 200 600 in
  check_true "same seed, same graph" (Graph.equal a b)

let test_random_regular_config_invariants () =
  let n = 400 and d = 6 in
  let g = Gen.random_regular_config (rng ~salt:11 ()) n d in
  check_int "n" n (Graph.n g);
  check_true "max degree <= d" (Graph.max_degree g <= d);
  (* Simplification drops only self-loops and duplicate pairings; for
     sparse d the deficit is a few edges, not a constant fraction. *)
  check_true "near-regular" (Graph.m g >= n * d * 9 / 10 / 2);
  check_true "odd n*d rejected"
    (try
       ignore (Gen.random_regular_config (rng ()) 5 3);
       false
     with Invalid_argument _ -> true)

let test_inform_seeding () =
  (* Multi-source seeding: the engine and the reference agree on the
     flood evolution from the same seeded set. *)
  let n = 300 in
  let g = Gen.gnm (rng ~salt:31 ()) n 900 in
  let seeds = [ 0; 17; 42; 199; 255 ] in
  let st = Sim_csr.create ~jobs:1 g ~source:0 in
  List.iter (Sim_csr.inform st) seeds;
  Sim_csr.inform st 17;
  check_int "inform is idempotent" (List.length seeds) (Sim_csr.informed_count st);
  check_int "seeded since = current round" 0 (Sim_csr.informed_since st 42);
  let expected =
    (Ref.run ~sources:(List.tl seeds) ~max_rounds:20 g ~source:0 Ref.flood (Rng.create 1))
      .Sim.frontier_history
  in
  let r = Rng.create 1 in
  for i = 1 to 20 do
    ignore (Sim_csr.step st Sim_csr.flood r);
    check_int
      (Printf.sprintf "flood from seeded set agrees at round %d" i)
      (if i <= Array.length expected then expected.(i - 1) else n)
      (Sim_csr.informed_count st)
  done;
  (* Fully seeded network: a flood step is a fixpoint. *)
  let st2 = Sim_csr.create ~jobs:1 g ~source:0 in
  for v = 0 to n - 1 do
    Sim_csr.inform st2 v
  done;
  check_true "all informed after full seeding" (Sim_csr.all_informed st2);
  check_int "saturated flood informs no one" 0 (Sim_csr.step st2 Sim_csr.flood (Rng.create 2))

(* --- satellite contracts --- *)

let test_round_limit_overflow_safe () =
  check_int "small n" (64 * 100 + 1024) (Sim.round_limit 100);
  check_int "huge n pins to max_int" max_int (Sim.round_limit (max_int / 8));
  check_true "limit is positive for every n" (Sim.round_limit ((max_int - 1024) / 64) > 0)

let test_intvec () =
  let v = Intvec.create ~capacity:2 () in
  check_int "empty" 0 (Intvec.length v);
  for i = 0 to 99 do
    Intvec.push v (i * i)
  done;
  check_int "length" 100 (Intvec.length v);
  check_int "get" 81 (Intvec.get v 9);
  check_true "snapshot" (Intvec.to_array v = Array.init 100 (fun i -> i * i));
  Intvec.clear v;
  check_int "cleared" 0 (Intvec.length v)

let test_zero_alloc_steady_state () =
  (* The acceptance criterion behind the SIMSCALE alloc claim: once the
     network is saturated, a flood step at jobs=1 allocates nothing (the
     randomized protocols additionally pay the Rng's boxed int64 draws, so
     flood is the clean probe of the kernel itself). *)
  let g = Gen.gnm (rng ~salt:23 ()) 2000 8000 in
  let t = Sim_csr.create ~jobs:1 g ~source:0 in
  let r = Rng.create 7 in
  (* Saturate first (flood either completes or reaches its fixpoint). *)
  for _ = 1 to 200 do
    ignore (Sim_csr.step t Sim_csr.flood r)
  done;
  Memgc.enable ();
  Fun.protect ~finally:Memgc.disable (fun () ->
      (* Gc.minor_words itself boxes a float (a few words), so the budget
         is a constant independent of the step count: 50 steps under 10
         words means the per-step cost is exactly zero. *)
      let w0 = Memgc.own_minor_words () in
      for _ = 1 to 50 do
        ignore (Sim_csr.step t Sim_csr.flood r)
      done;
      let dw = Memgc.own_minor_words () -. w0 in
      check_true (Printf.sprintf "steady-state flood steps allocate 0 words (got %.0f)" dw)
        (dw < 10.0))

let suite =
  [
    Alcotest.test_case "golden pins on all families" `Slow test_golden_pins;
    Alcotest.test_case "csr = reference on all families" `Slow test_equivalence_on_families;
    test_equivalence_qcheck;
    Alcotest.test_case "replayed schedule = reference" `Quick test_replay_matches_reference;
    Alcotest.test_case "jobs invariance on gnm(3000)" `Slow test_jobs_invariance;
    Alcotest.test_case "csr layout structure" `Quick test_csr_structure;
    Alcotest.test_case "inform seeds extra sources" `Quick test_inform_seeding;
    Alcotest.test_case "gnm invariants" `Quick test_gnm_invariants;
    Alcotest.test_case "gnm deterministic" `Quick test_gnm_deterministic;
    Alcotest.test_case "random_regular_config invariants" `Quick
      test_random_regular_config_invariants;
    Alcotest.test_case "round limit overflow-safe" `Quick test_round_limit_overflow_safe;
    Alcotest.test_case "intvec" `Quick test_intvec;
    Alcotest.test_case "csr steady state allocates zero" `Quick test_zero_alloc_steady_state;
  ]
