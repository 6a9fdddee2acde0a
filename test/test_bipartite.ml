module Bipartite = Wx_graph.Bipartite
module Graph = Wx_graph.Graph
module Gen = Wx_graph.Gen
module Bitset = Wx_util.Bitset
open Common

(* S = {0,1}, N = {0,1,2}; 0–{0,1}, 1–{1,2}. *)
let inst = Bipartite.of_edge_array ~s:2 ~n:3 [| 0; 0; 0; 1; 1; 1; 1; 2 |]

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
  let b = Bipartite.of_edge_array ~s:1 ~n:1 [| 0; 0; 0; 0 |] in
  check_int "m" 1 (Bipartite.m b)

let test_iter_edges () =
  let count = ref 0 in
  Bipartite.iter_edges inst (fun _ _ -> incr count);
  check_int "edges" 4 !count

let test_has_isolated () =
  check_true "none" (not (Bipartite.has_isolated inst));
  let b = Bipartite.of_edge_array ~s:2 ~n:2 [| 0; 0 |] in
  check_true "isolated" (Bipartite.has_isolated b)

let test_sub_instance () =
  let sub, s_map, n_map =
    Bipartite.sub_instance inst (Bitset.of_list 2 [ 1 ]) (Bitset.of_list 3 [ 1; 2 ])
  in
  check_int "s" 1 (Bipartite.s_count sub);
  check_int "n" 2 (Bipartite.n_count sub);
  check_int "m" 2 (Bipartite.m sub);
  check_true "maps" (s_map = [| 1 |] && n_map = [| 1; 2 |])

let test_of_rows_rejects_malformed () =
  let bad name offsets adjacency =
    match Bipartite.of_rows ~n:3 offsets adjacency with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  bad "unsorted row" [| 0; 2 |] [| 1; 0 |];
  bad "repeat" [| 0; 2 |] [| 1; 1 |];
  bad "out of range" [| 0; 1 |] [| 3 |];
  bad "offsets past the end" [| 0; 2 |] [| 0 |];
  bad "decreasing offsets" [| 0; 2; 1; 2 |] [| 0; 1 |];
  bad "no offsets" [||] [||]

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

(* Both sides' rows and [m] equal the Hashtbl reference's on [es]. *)
let same_as_reference ~s ~n es t =
  let adj_s, adj_n, m = Reference_kernels.bipartite_rows ~s ~n es in
  Bipartite.s_count t = s
  && Bipartite.n_count t = n
  && Bipartite.m t = m
  && Array.length (Bipartite.adjacency_s t) = m
  && Array.length (Bipartite.adjacency_n t) = m
  && Array.for_all Fun.id (Array.mapi (fun u row -> Reference_kernels.row_s t u = row) adj_s)
  && Array.for_all Fun.id (Array.mapi (fun w row -> Reference_kernels.row_n t w = row) adj_n)

(* [filter]'s instance and maps against the reference built from scratch:
   S is [s_set], N is [n_set], and the edges are the [edges] pairs with
   both ends kept, renumbered into the two maps. *)
let filter_matches_reference (t, s_map, n_map) ~s_set ~n_set edges =
  let s_map' = Bitset.to_array s_set and n_map' = Bitset.to_array n_set in
  let index map x =
    let rec go i = if i = Array.length map then -1 else if map.(i) = x then i else go (i + 1) in
    go 0
  in
  let es =
    List.filter_map
      (fun (u, w) ->
        let i = index s_map' u and j = index n_map' w in
        if i >= 0 && j >= 0 then Some (i, j) else None)
      edges
  in
  s_map = s_map' && n_map = n_map'
  && same_as_reference ~s:(Array.length s_map') ~n:(Array.length n_map') es t

(* The builders' own range check, not an index error further in. *)
let raises f =
  match f () with
  | _ -> false
  | exception Invalid_argument msg -> String.ends_with ~suffix:": endpoint out of range" msg

(* A gnp graph with a random vertex subset. *)
let arbitrary_graph_and_set =
  QCheck.make
    ~print:(fun (g, set) -> Format.asprintf "%aS = %s" Graph.pp_adjacency g (Bitset.to_string set))
    QCheck.Gen.(
      let* n = int_range 1 14 in
      let* p = float_range 0.1 0.6 in
      let* seed = int_range 0 1_000_000 in
      let r = Rng.create seed in
      let g = Gen.gnp r n p in
      return (g, Bitset.random_subset r (Bitset.full n) 0.4))

(* A bipartite instance with a random subset of each side. *)
let arbitrary_bipartite_and_sets =
  QCheck.make
    ~print:(fun (t, ss, ns) ->
      Format.asprintf "%a S' = %s N' = %s" Bipartite.pp t (Bitset.to_string ss)
        (Bitset.to_string ns))
    QCheck.Gen.(
      let* t = QCheck.gen (arbitrary_bipartite ~smax:12 ~nmax:16) in
      let* seed = int_range 0 1_000_000 in
      let r = Rng.create seed in
      let ss = Bitset.random_subset r (Bitset.full (Bipartite.s_count t)) 0.5 in
      return (t, ss, Bitset.random_subset r (Bitset.full (Bipartite.n_count t)) 0.5))

let qcheck_tests =
  let arb = arbitrary_bipartite_edges ~smax:12 ~nmax:16 in
  [
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
            && raises (fun () -> Bipartite.of_edge_array ~s ~n (ends_of es)))
          [ (s, 0); (0, n); (-1, 0); (0, -1) ])
      arb;
    qcheck ~count:100 "of_rows on an instance's S rows rebuilds it"
      (fun t ->
        let t' =
          Bipartite.of_rows ~n:(Bipartite.n_count t)
            (Array.copy (Bipartite.offsets_s t))
            (Array.copy (Bipartite.adjacency_s t))
        in
        Bipartite.m t' = Bipartite.m t
        && Bipartite.offsets_n t' = Bipartite.offsets_n t
        && Bipartite.adjacency_n t' = Bipartite.adjacency_n t)
      (arbitrary_bipartite ~smax:15 ~nmax:15);
    qcheck ~count:200 "of_set_neighborhood = reference from the edge list"
      (fun (g, set) ->
        let n_set = Bitset.create (Graph.n g) and es = ref [] in
        let orient u v =
          if Bitset.mem set u && not (Bitset.mem set v) then begin
            Bitset.add_inplace n_set v;
            es := (u, v) :: !es
          end
        in
        List.iter
          (fun (u, v) ->
            orient u v;
            orient v u)
          (Graph.edges g);
        filter_matches_reference (Bipartite.of_set_neighborhood g set) ~s_set:set ~n_set !es)
      arbitrary_graph_and_set;
    qcheck ~count:200 "sub_instance = reference from the edge list"
      (fun (t, ss, ns) ->
        let es = ref [] in
        Bipartite.iter_edges t (fun u w -> es := (u, w) :: !es);
        filter_matches_reference (Bipartite.sub_instance t ss ns) ~s_set:ss ~n_set:ns !es)
      arbitrary_bipartite_and_sets;
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
    qcheck ~count:50 "adjacency symmetric"
      (fun t ->
        let ok = ref true in
        Bipartite.iter_edges t (fun u w ->
            if not (Array.mem u (Reference_kernels.row_n t w)) then ok := false);
        !ok)
      (arbitrary_bipartite ~smax:15 ~nmax:15);
  ]

let suite =
  [
    Alcotest.test_case "counts" `Quick test_counts;
    Alcotest.test_case "degrees" `Quick test_degrees;
    Alcotest.test_case "dedup" `Quick test_dedup;
    Alcotest.test_case "iter_edges" `Quick test_iter_edges;
    Alcotest.test_case "has_isolated" `Quick test_has_isolated;
    Alcotest.test_case "sub_instance" `Quick test_sub_instance;
    Alcotest.test_case "of_rows rejects malformed rows" `Quick test_of_rows_rejects_malformed;
    Alcotest.test_case "of_set_neighborhood path" `Quick test_of_set_neighborhood;
    Alcotest.test_case "of_set_neighborhood C+" `Quick test_of_set_neighborhood_cplus;
  ]
  @ qcheck_tests
