module Bipartite = Wx_graph.Bipartite
module Graph = Wx_graph.Graph
module Gen = Wx_graph.Gen
module Bitset = Wx_util.Bitset
open Common

(* S = {0,1}, N = {0,1,2}; 0–{0,1}, 1–{1,2}. *)
let inst = Bipartite.of_edges ~s:2 ~n:3 [ (0, 0); (0, 1); (1, 1); (1, 2) ]

let test_counts () =
  check_int "s" 2 (Bipartite.s_count inst);
  check_int "n" 3 (Bipartite.n_count inst);
  check_int "m" 4 (Bipartite.m inst)

let test_degrees () =
  check_int "deg_s 0" 2 (Bipartite.deg_s inst 0);
  check_int "deg_n 1" 2 (Bipartite.deg_n inst 1);
  check_int "max_s" 2 (Bipartite.max_deg_s inst);
  check_int "max_n" 2 (Bipartite.max_deg_n inst);
  check_float "delta_s" 2.0 (Bipartite.delta_s inst);
  check_float "delta_n" (4.0 /. 3.0) (Bipartite.delta_n inst);
  check_float "beta" 1.5 (Bipartite.beta inst)

let test_dedup () =
  let b = Bipartite.of_edges ~s:1 ~n:1 [ (0, 0); (0, 0) ] in
  check_int "m" 1 (Bipartite.m b)

let test_mem_edge () =
  check_true "mem" (Bipartite.mem_edge inst 0 1);
  check_true "not mem" (not (Bipartite.mem_edge inst 0 2))

let test_iter_edges () =
  let count = ref 0 in
  Bipartite.iter_edges inst (fun _ _ -> incr count);
  check_int "edges" 4 !count

let test_has_isolated () =
  check_true "none" (not (Bipartite.has_isolated inst));
  let b = Bipartite.of_edges ~s:2 ~n:2 [ (0, 0) ] in
  check_true "isolated" (Bipartite.has_isolated b)

let test_sub_instance () =
  let sub, s_map, n_map =
    Bipartite.sub_instance inst (Bitset.of_list 2 [ 1 ]) (Bitset.of_list 3 [ 1; 2 ])
  in
  check_int "s" 1 (Bipartite.s_count sub);
  check_int "n" 2 (Bipartite.n_count sub);
  check_int "m" 2 (Bipartite.m sub);
  check_true "maps" (s_map = [| 1 |] && n_map = [| 1; 2 |])

let test_to_graph () =
  let g, s_map, n_map = Bipartite.to_graph inst in
  check_int "n" 5 (Graph.n g);
  check_int "m" 4 (Graph.m g);
  check_true "edge" (Graph.mem_edge g s_map.(0) n_map.(0));
  check_true "no intra" (not (Graph.mem_edge g s_map.(0) s_map.(1)))

let test_of_set_neighborhood () =
  (* Path 0-1-2-3-4, S = {1,2}: N should be Γ⁻(S) = {0,3}; edges 1-0, 2-3.
     The 1-2 edge is internal and must be dropped. *)
  let g = Gen.path 5 in
  let t, s_map, n_map = Bipartite.of_set_neighborhood g (Bitset.of_list 5 [ 1; 2 ]) in
  check_int "s" 2 (Bipartite.s_count t);
  check_int "n" 2 (Bipartite.n_count t);
  check_int "m" 2 (Bipartite.m t);
  check_true "s_map" (s_map = [| 1; 2 |]);
  check_true "n_map" (n_map = [| 0; 3 |])

let test_of_set_neighborhood_cplus () =
  (* C+ with the bad set {x, y, s0}: N = clique minus {x,y}; every N vertex
     sees both x and y → zero unique neighbors for the full set. *)
  let g = Wx_constructions.Cplus.create 6 in
  let s = Wx_constructions.Cplus.bad_set g in
  let t, _, _ = Bipartite.of_set_neighborhood g s in
  check_int "|N| = clique minus 2" 4 (Bipartite.n_count t);
  let uniq = Wx_expansion.Nbhd.Bip.unique_count t (Bitset.full 3) in
  check_int "no unique for full set" 0 uniq

let ends_of es =
  let a = Array.make (2 * List.length es) 0 in
  List.iteri
    (fun i (u, w) ->
      a.(2 * i) <- u;
      a.((2 * i) + 1) <- w)
    es;
  a

let same_as_reference ~s ~n es t =
  let adj_s, adj_n, m = Reference_kernels.bipartite_rows ~s ~n es in
  Bipartite.m t = m
  && Array.for_all Fun.id (Array.mapi (fun u row -> Bipartite.neighbors_s t u = row) adj_s)
  && Array.for_all Fun.id (Array.mapi (fun w row -> Bipartite.neighbors_n t w = row) adj_n)

(* The builders' own range check, not an index error further in. *)
let raises f =
  match f () with
  | _ -> false
  | exception Invalid_argument msg -> String.ends_with ~suffix:": endpoint out of range" msg

let qcheck_tests =
  let arb = arbitrary_bipartite_edges ~smax:12 ~nmax:16 in
  [
    qcheck ~count:200 "of_edges = Hashtbl reference"
      (fun (s, n, es) -> same_as_reference ~s ~n es (Bipartite.of_edges ~s ~n es))
      arb;
    qcheck ~count:200 "of_edge_array = Hashtbl reference, whole and prefix"
      (fun (s, n, es) ->
        let k = List.length es / 2 in
        same_as_reference ~s ~n es (Bipartite.of_edge_array ~s ~n (ends_of es))
        && same_as_reference ~s ~n
             (List.filteri (fun i _ -> i < k) es)
             (Bipartite.of_edge_array ~edges:k ~s ~n (ends_of es)))
      arb;
    qcheck ~count:100 "out-of-range endpoints raise"
      (fun (s, n, es) ->
        List.for_all
          (fun bad ->
            let es = es @ [ bad ] in
            raises (fun () -> Reference_kernels.bipartite_rows ~s ~n es)
            && raises (fun () -> Bipartite.of_edges ~s ~n es)
            && raises (fun () -> Bipartite.of_edge_array ~s ~n (ends_of es)))
          [ (s, 0); (0, n); (-1, 0); (0, -1) ])
      arb;
    qcheck ~count:50 "handshake both sides"
      (fun t ->
        let sum_s = ref 0 and sum_n = ref 0 in
        for u = 0 to Bipartite.s_count t - 1 do
          sum_s := !sum_s + Bipartite.deg_s t u
        done;
        for w = 0 to Bipartite.n_count t - 1 do
          sum_n := !sum_n + Bipartite.deg_n t w
        done;
        !sum_s = Bipartite.m t && !sum_n = Bipartite.m t)
      (arbitrary_bipartite ~smax:15 ~nmax:15);
    qcheck ~count:50 "to_graph preserves m"
      (fun t ->
        let g, _, _ = Bipartite.to_graph t in
        Graph.m g = Bipartite.m t)
      (arbitrary_bipartite ~smax:15 ~nmax:15);
    qcheck ~count:50 "adjacency symmetric"
      (fun t ->
        let ok = ref true in
        Bipartite.iter_edges t (fun u w ->
            if not (Array.mem u (Bipartite.neighbors_n t w)) then ok := false);
        !ok)
      (arbitrary_bipartite ~smax:15 ~nmax:15);
  ]

let suite =
  [
    Alcotest.test_case "counts" `Quick test_counts;
    Alcotest.test_case "degrees" `Quick test_degrees;
    Alcotest.test_case "dedup" `Quick test_dedup;
    Alcotest.test_case "mem_edge" `Quick test_mem_edge;
    Alcotest.test_case "iter_edges" `Quick test_iter_edges;
    Alcotest.test_case "has_isolated" `Quick test_has_isolated;
    Alcotest.test_case "sub_instance" `Quick test_sub_instance;
    Alcotest.test_case "to_graph" `Quick test_to_graph;
    Alcotest.test_case "of_set_neighborhood path" `Quick test_of_set_neighborhood;
    Alcotest.test_case "of_set_neighborhood C+" `Quick test_of_set_neighborhood_cplus;
  ]
  @ qcheck_tests
