(* Extended solver suite: greedy, local search, simulated annealing,
   branch-and-bound; plus the new constructions (Gbad plug, bipartite
   worst case) and the Uniform radio protocol. *)

module Solver = Wx_spokesmen.Solver
module Greedy = Wx_spokesmen.Greedy
module Anneal = Wx_spokesmen.Anneal
module Bb = Wx_spokesmen.Bb
module Exact = Wx_spokesmen.Exact
module Bipartite = Wx_graph.Bipartite
module Gen = Wx_graph.Gen
module Bitset = Wx_util.Bitset
open Common

let fixtures () =
  let r = rng ~salt:130 () in
  [
    ("rand-12x20-d3", Gen.random_bipartite_sdeg r ~s:12 ~n:20 ~d:3);
    ("rand-14x8-d4", Gen.random_bipartite_sdeg r ~s:14 ~n:8 ~d:4);
    ("core-8", Wx_constructions.Core_graph.bip (Wx_constructions.Core_graph.create 8));
    ("gbad-6-6-4", Wx_constructions.Gbad.bip (Wx_constructions.Gbad.create ~s:6 ~delta:6 ~beta:4));
    ("matching-32", Gen.bipartite_matching r 32);
  ]

(* --- greedy --- *)

let test_greedy_valid () =
  List.iter
    (fun (name, t) ->
      let r = Greedy.solve t in
      check_int (name ^ " consistent") (Solver.evaluate t r.Solver.chosen) r.Solver.covered)
    (fixtures ())

let test_greedy_local_at_least_greedy () =
  List.iter
    (fun (name, t) ->
      let a = Greedy.solve t and b = Greedy.solve_with_removal t in
      check_true (name ^ " local >= greedy") (b.Solver.covered >= a.Solver.covered))
    (fixtures ())

let test_greedy_matching_is_perfect () =
  (* On a perfect matching the greedy solution covers everything. *)
  let t = Gen.bipartite_matching (rng ~salt:131 ()) 64 in
  check_int "all covered" 64 (Greedy.solve t).Solver.covered

let test_greedy_local_escapes () =
  (* Instance where plain greedy can strand coverage: a hub covering
     everything (gain 3) vs three singleton columns. Greedy takes the hub
     (gain 3); adding any singleton then reduces... construct: hub covers
     n0,n1,n2; singletons cover n0 / n1 / n2. Greedy: hub first (gain 3);
     each singleton then has gain -1+... adding singleton u0: n0 goes 1→2
     (-1). Stuck at 3. Optimal = 3 too. Make hub cover 4, singletons 3:
     then hub+?... keep simple: assert local ≥ greedy on a crafted case. *)
  let t =
    Bipartite.of_edge_array ~s:4 ~n:4 [| 0; 0; 0; 1; 0; 2; 0; 3; 1; 0; 2; 1; 3; 2 |]
  in
  let g = Greedy.solve t and l = Greedy.solve_with_removal t in
  check_true "local >= greedy" (l.Solver.covered >= g.Solver.covered);
  check_int "optimum is 4" 4 (Exact.optimum t)

(* --- anneal --- *)

let test_anneal_valid_and_not_worse_than_greedy_start () =
  List.iter
    (fun (name, t) ->
      let a = Anneal.solve ~steps:2000 (rng ~salt:132 ()) t in
      check_int (name ^ " consistent") (Solver.evaluate t a.Solver.chosen) a.Solver.covered;
      let g = Greedy.solve_with_removal t in
      check_true (name ^ " anneal >= greedy-local") (a.Solver.covered >= g.Solver.covered))
    (fixtures ())

let test_anneal_deterministic_given_seed () =
  let t = Gen.random_bipartite_sdeg (rng ~salt:133 ()) ~s:16 ~n:24 ~d:3 in
  let a = Anneal.solve ~steps:1000 (Wx_util.Rng.create 5) t in
  let b = Anneal.solve ~steps:1000 (Wx_util.Rng.create 5) t in
  check_int "same result" a.Solver.covered b.Solver.covered

(* --- branch and bound --- *)

let test_bb_matches_enumeration () =
  List.iter
    (fun (name, t) ->
      if Bipartite.s_count t <= 16 then begin
        match Bb.solve t with
        | r, Bb.Proved_optimal ->
            check_int (name ^ " = enumeration") (Exact.optimum t) r.Solver.covered
        | _, Bb.Budget_exhausted -> Alcotest.fail (name ^ ": budget exhausted unexpectedly")
      end)
    (fixtures ())

let test_bb_random_cross_check () =
  let r = rng ~salt:134 () in
  for _ = 1 to 15 do
    let s = 4 + Wx_util.Rng.int r 10 in
    let n = 4 + Wx_util.Rng.int r 14 in
    let d = 1 + Wx_util.Rng.int r (min 4 n) in
    let t = Gen.random_bipartite_sdeg r ~s ~n ~d in
    match Bb.solve t with
    | res, Bb.Proved_optimal -> check_int "bb = enum" (Exact.optimum t) res.Solver.covered
    | _, Bb.Budget_exhausted -> Alcotest.fail "budget exhausted on tiny instance"
  done

let test_bb_beyond_enumeration () =
  (* |S| = 34 sparse: enumeration impossible (2^34), BB proves optimal. *)
  let t = Gen.random_bipartite_sdeg (rng ~salt:135 ()) ~s:34 ~n:80 ~d:3 in
  match Bb.solve t with
  | r, Bb.Proved_optimal ->
      let best = Wx_spokesmen.Portfolio.solve ~reps:32 (rng ~salt:136 ()) t in
      check_true "optimal >= portfolio" (r.Solver.covered >= best.Solver.covered)
  | _, Bb.Budget_exhausted -> Alcotest.fail "expected proof at |S| = 34"

let test_bb_budget () =
  let t = Gen.random_bipartite_sdeg (rng ~salt:137 ()) ~s:30 ~n:30 ~d:6 in
  match Bb.solve ~node_limit:100 t with
  | r, Bb.Budget_exhausted -> check_true "anytime result valid" (r.Solver.covered >= 0)
  | _, Bb.Proved_optimal -> () (* tiny budgets can still finish on easy instances *)

let test_bb_optimum_api () =
  let t = Gen.bipartite_matching (rng ~salt:138 ()) 12 in
  check_true "matching optimum = 12" (Bb.optimum t = Some 12)

(* --- Gbad plug (Remark 2 after Lemma 3.3) --- *)

let test_gbad_plug_caps_unique_expansion () =
  let host = Gen.random_regular (rng ~salt:139 ()) 64 6 in
  let gbad = Wx_constructions.Gbad.create ~s:8 ~delta:6 ~beta:4 in
  let plug = Wx_constructions.Gbad_plug.create (rng ~salt:140 ()) ~host ~gbad in
  check_float "βu(S-side) = 2β−Δ" 2.0
    (Wx_constructions.Gbad_plug.unique_expansion_of_s_star plug);
  (* Degree grows at most additively. *)
  check_true "degree additive"
    (Wx_graph.Graph.max_degree plug.Wx_constructions.Gbad_plug.graph
    <= Wx_graph.Graph.max_degree host + Wx_constructions.Gbad.delta gbad)

(* --- bipartite worst case (Remark in 4.3.3) --- *)

let test_worst_case_bipartite_stays_bipartite () =
  let host = Gen.complete_bipartite 32 32 in
  let wc, l, r =
    Wx_constructions.Worst_case.create_bipartite (rng ~salt:141 ()) ~eps:0.4 ~host
      ~host_beta:0.5
  in
  let g = wc.Wx_constructions.Worst_case.graph in
  check_true "still bipartite" (Wx_graph.Traversal.is_bipartite g);
  check_int "sides balanced" (Bitset.cardinal l) (Bitset.cardinal r);
  check_int "sides partition V" (Wx_graph.Graph.n g) (Bitset.cardinal l + Bitset.cardinal r);
  check_true "sides disjoint" (Bitset.disjoint l r);
  (* S* is on the left, its neighbors on the right. *)
  Bitset.iter
    (fun v ->
      Wx_graph.Graph.iter_neighbors g v (fun w -> check_true "S*→R only" (Bitset.mem r w)))
    wc.Wx_constructions.Worst_case.s_star

(* --- uniform radio protocol --- *)

let test_uniform_protocol_bounds () =
  Alcotest.check_raises "p out of range" (Invalid_argument "Sim_csr.uniform: p out of range")
    (fun () -> ignore (Wx_radio.Sim_csr.uniform 1.5))

let test_uniform_one_is_flood () =
  (* p = 1 behaves like flooding: stalls on C+. *)
  let g = Wx_constructions.Cplus.create 8 in
  let o =
    Wx_radio.Sim_csr.run ~max_rounds:100 g
      ~source:(Wx_constructions.Cplus.source g) (Wx_radio.Sim_csr.uniform 1.0)
      (rng ~salt:142 ())
  in
  check_true "stalls like flood" (not o.Wx_radio.Sim.completed)

let test_uniform_half_completes_cplus () =
  let g = Wx_constructions.Cplus.create 8 in
  let o =
    Wx_radio.Sim_csr.run ~max_rounds:5000 g
      ~source:(Wx_constructions.Cplus.source g) (Wx_radio.Sim_csr.uniform 0.3)
      (rng ~salt:143 ())
  in
  check_true "random silence breaks the collision" o.Wx_radio.Sim.completed

(* --- matching generator --- *)

let test_matching_shape () =
  let t = Gen.bipartite_matching (rng ~salt:144 ()) 20 in
  check_int "m" 20 (Bipartite.m t);
  for u = 0 to 19 do
    check_int "S degree 1" 1 (Bipartite.deg_s t u)
  done;
  for w = 0 to 19 do
    check_int "N degree 1" 1 (Bipartite.deg_n t w)
  done

let suite =
  [
    Alcotest.test_case "greedy valid" `Quick test_greedy_valid;
    Alcotest.test_case "greedy-local >= greedy" `Quick test_greedy_local_at_least_greedy;
    Alcotest.test_case "greedy on matching" `Quick test_greedy_matching_is_perfect;
    Alcotest.test_case "greedy local escapes" `Quick test_greedy_local_escapes;
    Alcotest.test_case "anneal valid/improves" `Quick test_anneal_valid_and_not_worse_than_greedy_start;
    Alcotest.test_case "anneal deterministic" `Quick test_anneal_deterministic_given_seed;
    Alcotest.test_case "bb = enumeration" `Quick test_bb_matches_enumeration;
    Alcotest.test_case "bb random cross-check" `Quick test_bb_random_cross_check;
    Alcotest.test_case "bb beyond enumeration" `Slow test_bb_beyond_enumeration;
    Alcotest.test_case "bb budget" `Quick test_bb_budget;
    Alcotest.test_case "bb optimum api" `Quick test_bb_optimum_api;
    Alcotest.test_case "gbad plug" `Quick test_gbad_plug_caps_unique_expansion;
    Alcotest.test_case "bipartite worst case" `Quick test_worst_case_bipartite_stays_bipartite;
    Alcotest.test_case "uniform bounds" `Quick test_uniform_protocol_bounds;
    Alcotest.test_case "uniform p=1 floods" `Quick test_uniform_one_is_flood;
    Alcotest.test_case "uniform p=0.3 completes" `Quick test_uniform_half_completes_cplus;
    Alcotest.test_case "matching shape" `Quick test_matching_shape;
  ]
