module Arboricity = Wx_graph.Arboricity
module Graph = Wx_graph.Graph
module Gen = Wx_graph.Gen
module Bitset = Wx_util.Bitset
open Common

let test_density_of_subset () =
  let g = Gen.complete 4 in
  let s = Bitset.of_list 4 [ 0; 1; 2 ] in
  check_float "triangle density" (3.0 /. 2.0) (Arboricity.density_of_subset g s);
  check_float "avg degree" 2.0 (Arboricity.avg_degree_of_subset g s);
  check_float "singleton" 0.0 (Arboricity.density_of_subset g (Bitset.of_list 4 [ 0 ]))

let test_exact_tree () =
  check_int "tree" 1 (Arboricity.exact (Gen.binary_tree 3));
  check_int "path" 1 (Arboricity.exact (Gen.path 8))

let test_exact_cycle () = check_int "cycle" 2 (Arboricity.exact (Gen.cycle 8))

let test_exact_complete () =
  (* K_n has arboricity ⌈n/2⌉. *)
  check_int "K4" 2 (Arboricity.exact (Gen.complete 4));
  check_int "K5" 3 (Arboricity.exact (Gen.complete 5));
  check_int "K6" 3 (Arboricity.exact (Gen.complete 6))

let test_exact_grid () =
  (* Planar graphs have arboricity ≤ 3; grids are 2. *)
  check_int "grid" 2 (Arboricity.exact (Gen.grid 3 4))

let test_exact_too_large () =
  Alcotest.check_raises "n > 20" (Invalid_argument "Arboricity.exact: n too large (max 20)")
    (fun () -> ignore (Arboricity.exact (Gen.cycle 25)))

let test_peeling_bound () =
  check_int "complete K6" 3 (Arboricity.lower_bound_peeling (Gen.complete 6));
  check_true "cycle >= 1" (Arboricity.lower_bound_peeling (Gen.cycle 8) >= 1)

let test_degeneracy () =
  check_int "tree" 1 (Arboricity.degeneracy (Gen.binary_tree 3));
  check_int "cycle" 2 (Arboricity.degeneracy (Gen.cycle 8));
  check_int "complete" 5 (Arboricity.degeneracy (Gen.complete 6));
  check_int "grid" 2 (Arboricity.degeneracy (Gen.grid 4 4))

let test_paper_lower_bound () =
  check_float "balanced" 4.0 (Arboricity.paper_lower_bound ~delta:8 ~beta:2.0);
  check_float "beta small" 4.0 (Arboricity.paper_lower_bound ~delta:8 ~beta:0.5)

let qcheck_tests =
  [
    qcheck ~count:200 "peel = linear-scan reference"
      (fun g -> Arboricity.peel g = Reference_kernels.peel g)
      (arbitrary_graph ~lo:0 ~hi:40);
    qcheck ~count:30 "peeling <= exact <= degeneracy"
      (fun g ->
        if Graph.n g > 14 || Graph.n g < 2 then true
        else begin
          let ex = Arboricity.exact g in
          let lb = Arboricity.lower_bound_peeling g in
          let dg = Arboricity.degeneracy g in
          lb <= ex && (ex <= dg || dg = 0)
        end)
      (arbitrary_graph ~lo:2 ~hi:12);
  ]

let suite =
  [
    Alcotest.test_case "density of subset" `Quick test_density_of_subset;
    Alcotest.test_case "exact tree" `Quick test_exact_tree;
    Alcotest.test_case "exact cycle" `Quick test_exact_cycle;
    Alcotest.test_case "exact complete" `Quick test_exact_complete;
    Alcotest.test_case "exact grid" `Quick test_exact_grid;
    Alcotest.test_case "exact too large" `Quick test_exact_too_large;
    Alcotest.test_case "peeling bound" `Quick test_peeling_bound;
    Alcotest.test_case "degeneracy" `Quick test_degeneracy;
    Alcotest.test_case "paper lower bound" `Quick test_paper_lower_bound;
  ]
  @ qcheck_tests
