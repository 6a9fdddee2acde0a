module Connectivity = Wx_graph.Connectivity
module Gen = Wx_graph.Gen
module Graph = Wx_graph.Graph
open Common

let test_st_path () =
  check_int "path ends" 1 (Connectivity.st_edge_connectivity (Gen.path 5) 0 4)

let test_st_cycle () =
  check_int "two disjoint paths" 2 (Connectivity.st_edge_connectivity (Gen.cycle 8) 0 4)

let test_st_complete () =
  check_int "K6 any pair" 5 (Connectivity.st_edge_connectivity (Gen.complete 6) 0 3)

let test_global_values () =
  check_int "path" 1 (Connectivity.edge_connectivity (Gen.path 6));
  check_int "cycle" 2 (Connectivity.edge_connectivity (Gen.cycle 8));
  check_int "complete" 5 (Connectivity.edge_connectivity (Gen.complete 6));
  check_int "hypercube" 4 (Connectivity.edge_connectivity (Gen.hypercube 4));
  check_int "disconnected" 0 (Connectivity.edge_connectivity (Graph.of_edges 4 [ (0, 1) ]));
  check_int "single" 0 (Connectivity.edge_connectivity (Graph.of_edges 1 []))

let test_barbell_bridge () =
  check_int "bridge" 1 (Connectivity.edge_connectivity (Gen.barbell 5))

let test_lollipop () =
  let g = Gen.lollipop 6 4 in
  check_int "n" 10 (Graph.n g);
  check_int "tail is the cut" 1 (Connectivity.edge_connectivity g);
  (* Lollipop has terrible Cheeger constant: the tail prefix cut. *)
  let h, _ = Wx_spectral.Cheeger.h_exact g in
  check_true "h <= 1/4 (tail cut)" (h <= 0.25 +. 1e-9)

let test_random_regular_well_connected () =
  (* Random d-regular graphs are d-edge-connected w.h.p. — verify on fixed
     seeds; edge connectivity never exceeds min degree. *)
  let r = rng ~salt:170 () in
  for _ = 1 to 3 do
    let g = Gen.random_regular r 24 4 in
    let lam = Connectivity.edge_connectivity g in
    check_true "<= d" (lam <= 4);
    check_true ">= 2 on these seeds" (lam >= 2)
  done

let test_is_k_edge_connected () =
  check_true "cycle 2-connected" (Connectivity.is_k_edge_connected (Gen.cycle 6) 2);
  check_true "cycle not 3" (not (Connectivity.is_k_edge_connected (Gen.cycle 6) 3))

let test_barabasi_albert_shape () =
  let r = rng ~salt:171 () in
  let g = Gen.barabasi_albert r 50 2 in
  check_int "n" 50 (Graph.n g);
  check_true "connected" (Wx_graph.Traversal.is_connected g);
  (* Seed K3 + 47 vertices × 2 links (minus any collisions): around 97. *)
  check_true "m close to 2n" (Graph.m g >= 80 && Graph.m g <= 100);
  check_true "has a hub" (Graph.max_degree g >= 6)

let test_barabasi_albert_validation () =
  let r = rng ~salt:172 () in
  Alcotest.check_raises "m >= n" (Invalid_argument "Gen.barabasi_albert: need n > m >= 1")
    (fun () -> ignore (Gen.barabasi_albert r 3 3))

(* The generator before its endpoint pool was preallocated: one
   [Array.append] per edge, quadratic in n. Kept as the oracle that the
   linear version draws the same graph. *)
let barabasi_albert_quadratic rng n m =
  let pool = ref [] and es = ref [] in
  for u = 0 to m do
    for v = u + 1 to m do
      es := (u, v) :: !es;
      pool := u :: v :: !pool
    done
  done;
  let pool_arr = ref (Array.of_list !pool) in
  for v = m + 1 to n - 1 do
    let chosen = Hashtbl.create m and attempts = ref 0 in
    while Hashtbl.length chosen < m && !attempts < 50 * m do
      incr attempts;
      let target = !pool_arr.(Wx_util.Rng.int rng (Array.length !pool_arr)) in
      if target <> v then Hashtbl.replace chosen target ()
    done;
    let u = ref 0 in
    while Hashtbl.length chosen < m do
      if !u <> v then Hashtbl.replace chosen !u ();
      incr u
    done;
    List.iter
      (fun t ->
        es := (v, t) :: !es;
        pool_arr := Array.append !pool_arr [| v; t |])
      (Hashtbl.fold (fun t () acc -> t :: acc) chosen [])
  done;
  Graph.of_edges n !es

let test_barabasi_albert_matches_quadratic () =
  List.iter
    (fun (n, m, salt) ->
      check_true
        (Printf.sprintf "n=%d m=%d salt=%d" n m salt)
        (Graph.equal
           (Gen.barabasi_albert (rng ~salt ()) n m)
           (barabasi_albert_quadratic (rng ~salt ()) n m)))
    [ (2, 1, 0); (5, 4, 1); (12, 2, 17); (50, 2, 171); (120, 3, 2); (300, 1, 3); (300, 2, 4);
      (300, 5, 5) ]

let test_barabasi_albert_linear () =
  let t0 = Unix.gettimeofday () in
  let g = Gen.barabasi_albert (rng ~salt:173 ()) 100_000 2 in
  let dt = Unix.gettimeofday () -. t0 in
  check_int "n" 100_000 (Graph.n g);
  check_true (Printf.sprintf "n = 10^5 builds in under 1 s (took %.2f s)" dt) (dt < 1.0)

let suite =
  [
    Alcotest.test_case "st path" `Quick test_st_path;
    Alcotest.test_case "st cycle" `Quick test_st_cycle;
    Alcotest.test_case "st complete" `Quick test_st_complete;
    Alcotest.test_case "global values" `Quick test_global_values;
    Alcotest.test_case "barbell bridge" `Quick test_barbell_bridge;
    Alcotest.test_case "lollipop" `Quick test_lollipop;
    Alcotest.test_case "random regular connected" `Quick test_random_regular_well_connected;
    Alcotest.test_case "is_k_edge_connected" `Quick test_is_k_edge_connected;
    Alcotest.test_case "barabasi-albert shape" `Quick test_barabasi_albert_shape;
    Alcotest.test_case "barabasi-albert validation" `Quick test_barabasi_albert_validation;
    Alcotest.test_case "barabasi-albert = quadratic oracle" `Quick
      test_barabasi_albert_matches_quadratic;
    Alcotest.test_case "barabasi-albert builds 10^5 in 1 s" `Quick test_barabasi_albert_linear;
  ]
