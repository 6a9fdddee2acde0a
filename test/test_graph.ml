module Graph = Wx_graph.Graph
module Gen = Wx_graph.Gen
module Bitset = Wx_util.Bitset
open Common

let triangle = Graph.of_edges 3 [ (0, 1); (1, 2); (2, 0) ]

let test_of_edges_basic () =
  check_int "n" 3 (Graph.n triangle);
  check_int "m" 3 (Graph.m triangle);
  check_int "deg" 2 (Graph.degree triangle 0)

let test_of_edges_dedup () =
  let g = Graph.of_edges 3 [ (0, 1); (1, 0); (0, 1) ] in
  check_int "m" 1 (Graph.m g)

let test_of_edges_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.of_edges: self-loop") (fun () ->
      ignore (Graph.of_edges 3 [ (1, 1) ]))

let test_of_edges_rejects_out_of_range () =
  Alcotest.check_raises "range" (Invalid_argument "Graph.of_edges: endpoint out of range")
    (fun () -> ignore (Graph.of_edges 3 [ (0, 3) ]))

let test_of_edges_rejects_negative_n () =
  Alcotest.check_raises "negative n" (Invalid_argument "Graph.of_edges: negative n") (fun () ->
      ignore (Graph.of_edges (-1) []))

let test_of_edge_array_rejects () =
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ())) in
  raises "Graph.of_edge_array: bad edge count" (fun () -> Graph.of_edge_array 3 [| 0; 1; 2 |]);
  raises "Graph.of_edge_array: bad edge count" (fun () ->
      Graph.of_edge_array ~edges:2 3 [| 0; 1; 2 |]);
  raises "Graph.of_edge_array: bad edge count" (fun () -> Graph.of_edge_array ~edges:(-1) 3 [||]);
  raises "Graph.of_edge_array: self-loop" (fun () -> Graph.of_edge_array 3 [| 0; 1; 2; 2 |]);
  raises "Graph.of_edge_array: endpoint out of range" (fun () -> Graph.of_edge_array 3 [| 0; 3 |]);
  raises "Graph.of_edge_array: negative n" (fun () -> Graph.of_edge_array (-1) [||]);
  (* Endpoints past [edges] are never read, even invalid ones. *)
  check_true "prefix only"
    (Graph.equal triangle (Graph.of_edge_array ~edges:3 3 [| 0; 1; 1; 2; 2; 0; 5; 5 |]))

let test_neighbor_rows_sorted () =
  let g = Graph.of_edges 5 [ (2, 4); (2, 0); (2, 3); (2, 1) ] in
  check_true "sorted" (Graph.neighbors g 2 = [| 0; 1; 3; 4 |])

let test_mem_edge () =
  check_true "mem" (Graph.mem_edge triangle 0 1);
  check_true "sym" (Graph.mem_edge triangle 1 0);
  check_true "no" (not (Graph.mem_edge (Gen.path 3) 0 2));
  check_true "out of range" (not (Graph.mem_edge triangle 0 99))

let test_degrees () =
  let star = Gen.star 5 in
  check_int "max" 4 (Graph.max_degree star);
  check_int "min" 1 (Graph.min_degree star);
  check_float "avg" (8.0 /. 5.0) (Graph.avg_degree star);
  check_true "not regular" (Graph.is_regular star = None);
  check_true "cycle regular" (Graph.is_regular (Gen.cycle 6) = Some 2)

let test_iter_edges_once () =
  let count = ref 0 in
  Graph.iter_edges triangle (fun u v ->
      incr count;
      check_true "ordered" (u < v));
  check_int "each edge once" 3 !count

let test_induced () =
  let g = Gen.cycle 6 in
  let sub, map = Graph.induced g (Bitset.of_list 6 [ 0; 1; 2; 4 ]) in
  check_int "n" 4 (Graph.n sub);
  (* Edges kept: (0,1), (1,2); vertex 4 isolated. *)
  check_int "m" 2 (Graph.m sub);
  check_true "map" (map = [| 0; 1; 2; 4 |])

let test_disjoint_union () =
  let g = Graph.disjoint_union triangle (Gen.path 2) in
  check_int "n" 5 (Graph.n g);
  check_int "m" 4 (Graph.m g);
  check_true "shifted edge" (Graph.mem_edge g 3 4);
  check_true "no cross" (not (Graph.mem_edge g 0 3))

let test_add_vertices_and_edges () =
  let g = Graph.add_vertices_and_edges triangle 2 [ (3, 0); (4, 3) ] in
  check_int "n" 5 (Graph.n g);
  check_int "m" 5 (Graph.m g);
  check_true "new edge" (Graph.mem_edge g 3 4)

let test_relabel () =
  let g = Graph.relabel (Gen.path 3) [| 2; 0; 1 |] in
  (* path 0-1-2 becomes 2-0-1. *)
  check_true "edge 2-0" (Graph.mem_edge g 2 0);
  check_true "edge 0-1" (Graph.mem_edge g 0 1);
  check_true "no 2-1" (not (Graph.mem_edge g 2 1))

let test_relabel_rejects_non_permutation () =
  Alcotest.check_raises "not perm" (Invalid_argument "Graph.relabel: not a permutation")
    (fun () -> ignore (Graph.relabel triangle [| 0; 0; 1 |]))

let test_equal () =
  check_true "equal" (Graph.equal triangle (Graph.of_edges 3 [ (2, 0); (0, 1); (1, 2) ]));
  check_true "not equal" (not (Graph.equal triangle (Gen.path 3)))

(* --- generators --- *)

let test_gen_cycle () =
  let g = Gen.cycle 5 in
  check_int "n" 5 (Graph.n g);
  check_int "m" 5 (Graph.m g);
  check_true "regular" (Graph.is_regular g = Some 2)

let test_gen_complete () =
  let g = Gen.complete 6 in
  check_int "m" 15 (Graph.m g);
  check_true "regular" (Graph.is_regular g = Some 5)

let test_gen_complete_bipartite () =
  let g = Gen.complete_bipartite 3 4 in
  check_int "n" 7 (Graph.n g);
  check_int "m" 12 (Graph.m g);
  check_true "no intra-left" (not (Graph.mem_edge g 0 1));
  check_true "cross" (Graph.mem_edge g 0 3)

let test_gen_grid () =
  let g = Gen.grid 3 4 in
  check_int "n" 12 (Graph.n g);
  check_int "m" ((2 * 4) + (3 * 3)) (Graph.m g);
  check_int "corner deg" 2 (Graph.degree g 0)

let test_gen_torus () =
  let g = Gen.torus 4 5 in
  check_true "4-regular" (Graph.is_regular g = Some 4);
  check_int "m" (2 * 20) (Graph.m g)

let test_gen_hypercube () =
  let g = Gen.hypercube 4 in
  check_int "n" 16 (Graph.n g);
  check_true "regular" (Graph.is_regular g = Some 4);
  check_int "m" 32 (Graph.m g)

let test_gen_binary_tree () =
  let g = Gen.binary_tree 3 in
  check_int "n" 15 (Graph.n g);
  check_int "m" 14 (Graph.m g);
  check_int "root deg" 2 (Graph.degree g 0)

let test_gen_random_regular () =
  let r = rng ~salt:30 () in
  for _ = 1 to 10 do
    let g = Gen.random_regular r 20 3 in
    check_true "3-regular" (Graph.is_regular g = Some 3)
  done

let test_gen_random_regular_validation () =
  let r = rng ~salt:31 () in
  Alcotest.check_raises "odd product" (Invalid_argument "Gen.random_regular: n*d must be even")
    (fun () -> ignore (Gen.random_regular r 5 3))

let test_gen_gnp_extremes () =
  let r = rng ~salt:32 () in
  check_int "p=0 empty" 0 (Graph.m (Gen.gnp r 10 0.0));
  check_int "p=1 complete" 45 (Graph.m (Gen.gnp r 10 1.0))

let test_gen_margulis () =
  let g = Gen.margulis 5 in
  check_int "n" 25 (Graph.n g);
  check_true "bounded degree" (Graph.max_degree g <= 8);
  check_true "connected" (Wx_graph.Traversal.is_connected g);
  (* Pinned against the definition: every vertex (x, y) joined to its four
     targets, loops dropped, duplicates collapsed. *)
  for m = 2 to 20 do
    let idx x y = (((y mod m) + m) mod m * m) + (((x mod m) + m) mod m) in
    let es = ref [] in
    for x = 0 to m - 1 do
      for y = 0 to m - 1 do
        let v = idx x y in
        List.iter
          (fun w -> if w <> v then es := (v, w) :: !es)
          [ idx (x + y) y; idx (x + y + 1) y; idx x (y + x); idx x (y + x + 1) ]
      done
    done;
    check_true
      (Printf.sprintf "margulis %d = definition" m)
      (Graph.equal (Gen.margulis m) (Graph.of_edges (m * m) !es))
  done

let test_gen_bipartite_sdeg () =
  let r = rng ~salt:33 () in
  let b = Gen.random_bipartite_sdeg r ~s:10 ~n:20 ~d:4 in
  for u = 0 to 9 do
    check_int "deg" 4 (Wx_graph.Bipartite.deg_s b u)
  done

let test_double_cover () =
  let g = Gen.double_cover triangle in
  check_int "n" 6 (Graph.n g);
  check_int "m" 6 (Graph.m g);
  (* Triangle's double cover is the 6-cycle: connected, 2-regular. *)
  check_true "regular" (Graph.is_regular g = Some 2);
  check_true "connected" (Wx_graph.Traversal.is_connected g)

(* Edge lists on n <= 24 vertices with repeats and both orientations. *)
let arbitrary_edge_list =
  QCheck.make
    ~print:(fun (n, es) ->
      Printf.sprintf "n=%d [%s]" n
        (String.concat "; " (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) es)))
    QCheck.Gen.(
      let* n = int_range 0 24 in
      if n < 2 then return (n, [])
      else
        let pair =
          let* u = int_range 0 (n - 1) in
          let* d = int_range 1 (n - 1) in
          return (u, (u + d) mod n)
        in
        let* es = list_size (int_range 0 (3 * n)) pair in
        let* twice = list_size (int_range 0 (List.length es)) (oneofl ((0, 1) :: es)) in
        return (n, es @ List.map (fun (u, v) -> (v, u)) twice))

(* Graph.of_edges against a boolean adjacency matrix that shares no code with
   Graph. *)
let of_edges_matches_matrix (n, es) =
  let g = Graph.of_edges n es in
  let mat = Array.make_matrix n n false in
  List.iter
    (fun (u, v) ->
      mat.(u).(v) <- true;
      mat.(v).(u) <- true)
    es;
  let row_count v = Array.fold_left (fun c b -> if b then c + 1 else c) 0 mat.(v) in
  let m = ref 0 in
  for v = 0 to n - 1 do
    m := !m + row_count v
  done;
  let m = !m / 2 in
  let offsets = Graph.offsets g and adjacency = Graph.adjacency g in
  let ok = ref (Graph.m g = m && Array.length offsets = n + 1 && offsets.(n) = 2 * m) in
  for v = 0 to n - 1 do
    if Graph.degree g v <> row_count v then ok := false;
    for i = offsets.(v) to offsets.(v + 1) - 1 do
      if (not mat.(v).(adjacency.(i))) || (i > offsets.(v) && adjacency.(i - 1) >= adjacency.(i))
      then ok := false
    done;
    for w = 0 to n - 1 do
      if Graph.mem_edge g v w <> mat.(v).(w) then ok := false
    done
  done;
  let seen = Array.make_matrix n n false and visits = ref 0 in
  Graph.iter_edges g (fun u v ->
      incr visits;
      if u >= v || (not mat.(u).(v)) || seen.(u).(v) then ok := false;
      seen.(u).(v) <- true);
  !ok && !visits = m

let qcheck_tests =
  [
    qcheck ~count:300 "of_edges = adjacency-matrix oracle" of_edges_matches_matrix
      arbitrary_edge_list;
    qcheck ~count:300 "of_edge_array = of_edges"
      (fun (n, es) ->
        let ends = Array.of_list (List.concat_map (fun (u, v) -> [ u; v ]) es) in
        let g = Graph.of_edges n es in
        (* A trailing junk pair past [~edges] must be ignored. *)
        Graph.equal g (Graph.of_edge_array n ends)
        && Graph.equal g
             (Graph.of_edge_array ~edges:(List.length es) n (Array.append ends [| -1; -1 |])))
      arbitrary_edge_list;
    qcheck ~count:50 "handshake: sum deg = 2m"
      (fun g ->
        let total = ref 0 in
        Graph.iter_vertices g (fun v -> total := !total + Graph.degree g v);
        !total = 2 * Graph.m g)
      (arbitrary_graph ~lo:2 ~hi:20);
    qcheck ~count:50 "mem_edge consistent with neighbors"
      (fun g ->
        let ok = ref true in
        Graph.iter_vertices g (fun u ->
            Graph.iter_neighbors g u (fun v -> if not (Graph.mem_edge g u v) then ok := false));
        !ok)
      (arbitrary_graph ~lo:2 ~hi:20);
    qcheck ~count:30 "induced subgraph edge subset"
      (fun g ->
        let r = Wx_util.Rng.create 5 in
        let k = max 1 (Graph.n g / 2) in
        let s = Bitset.random_of_universe r (Graph.n g) k in
        let sub, map = Graph.induced g s in
        let ok = ref true in
        Graph.iter_edges sub (fun u v ->
            if not (Graph.mem_edge g map.(u) map.(v)) then ok := false);
        !ok)
      (arbitrary_graph ~lo:2 ~hi:20);
  ]

let suite =
  [
    Alcotest.test_case "of_edges basic" `Quick test_of_edges_basic;
    Alcotest.test_case "of_edges dedup" `Quick test_of_edges_dedup;
    Alcotest.test_case "reject self-loop" `Quick test_of_edges_rejects_self_loop;
    Alcotest.test_case "reject out of range" `Quick test_of_edges_rejects_out_of_range;
    Alcotest.test_case "reject negative n" `Quick test_of_edges_rejects_negative_n;
    Alcotest.test_case "of_edge_array rejects" `Quick test_of_edge_array_rejects;
    Alcotest.test_case "neighbors sorted" `Quick test_neighbor_rows_sorted;
    Alcotest.test_case "mem_edge" `Quick test_mem_edge;
    Alcotest.test_case "degrees" `Quick test_degrees;
    Alcotest.test_case "iter_edges once" `Quick test_iter_edges_once;
    Alcotest.test_case "induced" `Quick test_induced;
    Alcotest.test_case "disjoint union" `Quick test_disjoint_union;
    Alcotest.test_case "add vertices+edges" `Quick test_add_vertices_and_edges;
    Alcotest.test_case "relabel" `Quick test_relabel;
    Alcotest.test_case "relabel rejects" `Quick test_relabel_rejects_non_permutation;
    Alcotest.test_case "equal" `Quick test_equal;
    Alcotest.test_case "gen cycle" `Quick test_gen_cycle;
    Alcotest.test_case "gen complete" `Quick test_gen_complete;
    Alcotest.test_case "gen complete bipartite" `Quick test_gen_complete_bipartite;
    Alcotest.test_case "gen grid" `Quick test_gen_grid;
    Alcotest.test_case "gen torus" `Quick test_gen_torus;
    Alcotest.test_case "gen hypercube" `Quick test_gen_hypercube;
    Alcotest.test_case "gen binary tree" `Quick test_gen_binary_tree;
    Alcotest.test_case "gen random regular" `Quick test_gen_random_regular;
    Alcotest.test_case "gen random regular validation" `Quick test_gen_random_regular_validation;
    Alcotest.test_case "gen gnp extremes" `Quick test_gen_gnp_extremes;
    Alcotest.test_case "gen margulis" `Quick test_gen_margulis;
    Alcotest.test_case "gen bipartite sdeg" `Quick test_gen_bipartite_sdeg;
    Alcotest.test_case "double cover" `Quick test_double_cover;
  ]
  @ qcheck_tests
