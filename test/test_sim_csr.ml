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
module Metrics = Wx_obs.Metrics
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

(* Both kernels against the reference. A run seeds about 70% of the
   vertices, then cycles three kinds of round through the checked
   [transmit]: every informed vertex (the seeded set's degree sum exceeds
   m, so these gather), each informed vertex with probability 1/4 (either
   side of the rule), and the source alone (one row, at most m, so these
   push). Decisions are a pure hash of (salt, round, v), so the engine's
   fill and the reference's decision function share no stream.
   [radio.push_rounds] shows which kernel ran. *)
let mixed_decision ~salt round v =
  match round mod 3 with
  | 0 -> true
  | 1 -> Hashtbl.hash (salt, round, v) land 3 = 0
  | _ -> v = 0

let mixed_cap = 60

(* [f ()] with metrics on, and the push rounds it ran. *)
let pushes_during f =
  let push_rounds = Metrics.counter "radio.push_rounds" in
  Metrics.enable ();
  let before = Metrics.counter_value push_rounds in
  let x = Fun.protect ~finally:Metrics.disable f in
  (Metrics.counter_value push_rounds - before, x)

let run_mixed ~jobs ~range g ~salt seeds =
  let n = Graph.n g in
  let fill t _rng =
    for v = 0 to n - 1 do
      if Sim_csr.is_informed t v && mixed_decision ~salt (Sim_csr.round t) v then
        Sim_csr.transmit t v
    done
  in
  let protocol = { Sim_csr.name = "mixed"; fill } in
  let st = Sim_csr.create ~jobs ~range g ~source:0 in
  List.iter (Sim_csr.inform st) seeds;
  let history = Intvec.create () and r = Rng.create 0 in
  while (not (Sim_csr.all_informed st)) && Sim_csr.round st < mixed_cap do
    ignore (Sim_csr.step st protocol r);
    Intvec.push history (Sim_csr.informed_count st)
  done;
  {
    Sim.rounds = Sim_csr.round st;
    completed = Sim_csr.all_informed st;
    informed_final = Sim_csr.informed_count st;
    collisions = Sim_csr.collisions st;
    frontier_history = Intvec.to_array history;
  }

let test_kernels_qcheck =
  qcheck ~count:80 "push and gather = reference on random transmit sets"
    (fun (g, salt) ->
      let seeds =
        List.filter
          (fun v -> v = 0 || Hashtbl.hash (salt, -1, v) mod 10 < 7)
          (List.init (Graph.n g) Fun.id)
      in
      let degsum = List.fold_left (fun acc v -> acc + Graph.degree g v) 0 seeds in
      QCheck.assume (degsum > Graph.m g);
      let reference =
        Ref.run ~sources:(List.tl seeds) ~max_rounds:mixed_cap g ~source:0
          (fun (s : Ref.state) v _ -> mixed_decision ~salt s.Ref.round v)
          (Rng.create 0)
      in
      List.for_all
        (fun jobs ->
          let push, o = pushes_during (fun () -> run_mixed ~jobs ~range:3 g ~salt seeds) in
          o = reference && (o.Sim.rounds < 3 || (push > 0 && push < o.Sim.rounds)))
        [ 1; 4 ])
    QCheck.(pair (arbitrary_graph ~lo:2 ~hi:32) (int_range 0 1_000_000))

(* A push that touches every vertex: on K_n two transmitters reach all n
   vertices, and the second row keeps writing at the touched list's spare
   slot after all n are in. The outcome must match the reference. (A
   missing spare slot is an unchecked write past the array, which this
   test exercises but cannot observe reliably; the full major collection
   at least walks the heap it would corrupt.) *)
let test_push_touches_every_vertex () =
  List.iter
    (fun n ->
      let g = Gen.complete n in
      let both t _ =
        Sim_csr.transmit t 0;
        Sim_csr.transmit t 1
      in
      let st = Sim_csr.create ~jobs:1 g ~source:0 in
      Sim_csr.inform st 1;
      let r = Rng.create 0 in
      for _ = 1 to 3 do
        ignore (Sim_csr.step st { Sim_csr.name = "both"; fill = both } r)
      done;
      let reference =
        Ref.run ~sources:[ 1 ] ~max_rounds:3 g ~source:0 (fun _ v _ -> v < 2) (Rng.create 0)
      in
      check_int (Printf.sprintf "K_%d collisions" n) reference.Sim.collisions
        (Sim_csr.collisions st);
      check_int (Printf.sprintf "K_%d informed" n) reference.Sim.informed_final
        (Sim_csr.informed_count st);
      Gc.full_major ())
    [ 4; 5; 12; 64 ]

(* The kernel choice in numbers: a Decay broadcast pushes every round,
   flood on a saturated network gathers every round. *)
let test_kernel_choice () =
  let g = Gen.random_regular_config (rng ~salt:41 ()) 2000 8 in
  let push, rounds =
    pushes_during (fun () ->
        (Sim_csr.run ~jobs:1 g ~source:0 Sim_csr.decay (Rng.create 3)).Sim.rounds)
  in
  check_true "decay completes" (rounds > 0);
  check_int "every decay round pushes" rounds push;
  let push, rounds =
    pushes_during (fun () ->
        let t = Sim_csr.create ~jobs:1 g ~source:0 in
        for v = 0 to Graph.n g - 1 do
          Sim_csr.inform t v
        done;
        for _ = 1 to 10 do
          ignore (Sim_csr.step t Sim_csr.flood (Rng.create 3))
        done;
        Sim_csr.round t)
  in
  check_int "saturated flood ran" 10 rounds;
  check_int "saturated flood never pushes" 0 push

(* One pool dispatch per round: a long run of dense rounds must reuse the
   pool's parked helper rather than spawn one per round. Flood over a
   network made fully informed with [inform] transmits from every vertex,
   so every round gathers (a Decay round has too few transmitters to
   gather, and a push never touches the pool). n = 2 range + 1 cuts three
   ranges, so every jobs-2 step crosses the pool with one helper. *)
let test_rounds_reuse_one_helper () =
  let range = 64 in
  let g = Gen.gnm (rng ~salt:5 ()) ((2 * range) + 1) (8 * range) in
  let run jobs =
    let t = Sim_csr.create ~jobs ~range g ~source:0 in
    for v = 0 to Graph.n g - 1 do
      Sim_csr.inform t v
    done;
    let r = Rng.create 77 in
    for _ = 1 to 200 do
      ignore (Sim_csr.step t Sim_csr.flood r)
    done;
    (Sim_csr.round t, Sim_csr.collisions t)
  in
  let base = run 1 in
  check_int "runs 200 rounds" 200 (fst base);
  let spawned = Metrics.counter "pool.domains_spawned" and runs = Metrics.counter "pool.runs" in
  Metrics.enable ();
  let spawned0 = Metrics.counter_value spawned and runs0 = Metrics.counter_value runs in
  let par = Fun.protect ~finally:Metrics.disable (fun () -> run 2) in
  check_true "every round crosses the pool" (Metrics.counter_value runs - runs0 >= 200);
  check_true "at most one domain spawned over 200 rounds"
    (Metrics.counter_value spawned - spawned0 <= 1);
  check_true "jobs 2 = jobs 1" (base = par)

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

(* The two sparse generators before they drew into a flat endpoint array:
   the same draws, consed into an edge list for Graph.of_edges. Kept as
   the oracle that the array versions build the same rows from the same
   stream. *)
let gnm_list rng n m =
  let seen = Hashtbl.create (2 * m) and es = ref [] and have = ref 0 in
  while !have < m do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then begin
      let key = if u < v then (u * n) + v else (v * n) + u in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        es := (u, v) :: !es;
        incr have
      end
    end
  done;
  Graph.of_edges n !es

let random_regular_config_list rng n d =
  let stubs = Array.init (n * d) (fun i -> i / d) in
  Rng.shuffle rng stubs;
  let es = ref [] in
  for i = 0 to (n * d / 2) - 1 do
    let u = stubs.(2 * i) and v = stubs.((2 * i) + 1) in
    if u <> v then es := (u, v) :: !es
  done;
  Graph.of_edges n !es

let test_generators_match_list_versions () =
  let same name gen oracle salt =
    let ra = rng ~salt () and rb = rng ~salt () in
    check_true (name ^ ": same rows") (Graph.equal (gen ra) (oracle rb));
    check_true (name ^ ": same next draw") (Rng.int64 ra = Rng.int64 rb)
  in
  List.iter
    (fun (n, m, salt) ->
      same (Printf.sprintf "gnm n=%d m=%d" n m) (fun r -> Gen.gnm r n m)
        (fun r -> gnm_list r n m) salt)
    [ (2, 1, 0); (5, 10, 1); (40, 60, 2); (300, 900, 3); (1000, 4000, 4); (2000, 1, 5) ];
  List.iter
    (fun (n, d, salt) ->
      same
        (Printf.sprintf "random_regular_config n=%d d=%d" n d)
        (fun r -> Gen.random_regular_config r n d)
        (fun r -> random_regular_config_list r n d)
        salt)
    [ (2, 1, 6); (5, 2, 7); (10, 9, 8); (300, 3, 9); (1000, 8, 10); (4096, 6, 11) ]

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

(* The acceptance criterion behind the SIMSCALE alloc claims: once the
   network is saturated, a step at jobs=1 allocates nothing. Flood probes
   the kernel alone; Decay adds one coin per informed vertex per round. *)
let check_zero_alloc_steady_state protocol =
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
        ignore (Sim_csr.step t protocol r)
      done;
      let dw = Memgc.own_minor_words () -. w0 in
      check_true
        (Printf.sprintf "steady-state %s steps allocate 0 words (got %.0f)" protocol.Sim_csr.name dw)
        (dw < 10.0))

let test_zero_alloc_steady_state () = check_zero_alloc_steady_state Sim_csr.flood
let test_zero_alloc_decay () = check_zero_alloc_steady_state Sim_csr.decay

(* Decay's division-free slot at the top of its multiply-shift range
   (x * k < 2^31), and past it where [mod] takes over. *)
let test_phase_slot_top_of_range () =
  for k = 1 to 62 do
    let top = ((1 lsl 31) - 1) / k in
    for x = max 0 (top - 4096) to top + 4096 do
      if Sim_csr.phase_slot k x <> x mod k then
        Alcotest.failf "phase_slot %d %d = %d, want %d" k x (Sim_csr.phase_slot k x) (x mod k)
    done
  done

let test_phase_slot_qcheck =
  qcheck ~count:2000 "phase_slot k x = x mod k"
    (fun (k, x) -> Sim_csr.phase_slot k x = x mod k)
    QCheck.(pair (int_range 1 62) (oneof [ int_bound 100_000; int_bound (1 lsl 33) ]))

let test_decay_phase_length_range () =
  List.iter
    (fun k ->
      match Sim_csr.decay_with_phase_length k with
      | _ -> Alcotest.failf "decay_with_phase_length %d should raise" k
      | exception Invalid_argument _ -> ())
    [ min_int; -1; 0; 63; 64 ];
  (* Both ends of the accepted range run: k = 1 transmits every round
     (slot 0, probability 1); k = 62 reaches slot 61. *)
  let g = Gen.gnm (rng ~salt:24 ()) 200 800 in
  List.iter
    (fun k ->
      let o =
        Sim_csr.run ~max_rounds:100 ~jobs:1 g ~source:0 (Sim_csr.decay_with_phase_length k)
          (Rng.create 5)
      in
      check_true (Printf.sprintf "k=%d informs beyond the source" k) (o.Sim.informed_final > 1))
    [ 1; 62 ]

let suite =
  [
    Alcotest.test_case "golden pins on all families" `Slow test_golden_pins;
    Alcotest.test_case "csr = reference on all families" `Slow test_equivalence_on_families;
    test_equivalence_qcheck;
    test_kernels_qcheck;
    Alcotest.test_case "decay pushes, saturated flood gathers" `Quick test_kernel_choice;
    Alcotest.test_case "push touching every vertex" `Quick test_push_touches_every_vertex;
    Alcotest.test_case "replayed schedule = reference" `Quick test_replay_matches_reference;
    Alcotest.test_case "jobs invariance on gnm(3000)" `Slow test_jobs_invariance;
    Alcotest.test_case "rounds reuse one pool helper" `Quick test_rounds_reuse_one_helper;
    Alcotest.test_case "csr layout structure" `Quick test_csr_structure;
    Alcotest.test_case "inform seeds extra sources" `Quick test_inform_seeding;
    Alcotest.test_case "gnm invariants" `Quick test_gnm_invariants;
    Alcotest.test_case "gnm deterministic" `Quick test_gnm_deterministic;
    Alcotest.test_case "array generators = list versions" `Quick
      test_generators_match_list_versions;
    Alcotest.test_case "random_regular_config invariants" `Quick
      test_random_regular_config_invariants;
    Alcotest.test_case "round limit overflow-safe" `Quick test_round_limit_overflow_safe;
    Alcotest.test_case "intvec" `Quick test_intvec;
    Alcotest.test_case "csr steady state allocates zero" `Quick test_zero_alloc_steady_state;
    Alcotest.test_case "csr decay steady state allocates zero" `Quick test_zero_alloc_decay;
    Alcotest.test_case "decay phase length range" `Quick test_decay_phase_length_range;
    Alcotest.test_case "phase slot at the top of its range" `Quick test_phase_slot_top_of_range;
    test_phase_slot_qcheck;
  ]
