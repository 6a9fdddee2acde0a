module Nbhd = Wx_expansion.Nbhd
module Graph = Wx_graph.Graph
module Gen = Wx_graph.Gen
module Bipartite = Wx_graph.Bipartite
module Bitset = Wx_util.Bitset
open Common

let path5 = Gen.path 5

let set l = Bitset.of_list 5 l

let test_gamma () =
  (* Γ({1,2}) on a path includes 0,1,2,3 (neighbors may be inside S). *)
  check_true "gamma" (Bitset.elements (Nbhd.gamma path5 (set [ 1; 2 ])) = [ 0; 1; 2; 3 ])

let test_gamma_minus () =
  check_true "gamma-" (Bitset.elements (Nbhd.gamma_minus path5 (set [ 1; 2 ])) = [ 0; 3 ])

let test_gamma1 () =
  (* On cycle 5, S = {0, 2}: vertex 1 sees both → not unique; 3 sees only 2;
     4 sees only 0. *)
  let c5 = Gen.cycle 5 in
  check_true "gamma1" (Bitset.elements (Nbhd.gamma1 c5 (set [ 0; 2 ])) = [ 3; 4 ])

let test_gamma1_excluding () =
  (* S = {0,2}, S' = {0}: vertices outside S with exactly one neighbor in S':
     1 and 4 both see 0 only. *)
  let c5 = Gen.cycle 5 in
  let s = set [ 0; 2 ] and s' = set [ 0 ] in
  check_true "Γ¹_S(S')" (Bitset.elements (Nbhd.gamma1_excluding c5 s s') = [ 1; 4 ])

let test_gamma1_excluding_requires_subset () =
  Alcotest.check_raises "subset"
    (Invalid_argument "Nbhd.gamma1_excluding: S' must be a subset of S") (fun () ->
      ignore (Nbhd.gamma1_excluding path5 (set [ 0 ]) (set [ 1 ])))

let test_deg_in () =
  check_int "deg_in" 2 (Nbhd.deg_in path5 1 (set [ 0; 2 ]));
  check_int "deg_in zero" 0 (Nbhd.deg_in path5 4 (set [ 0; 1 ]))

let test_expansion_of_set () =
  check_float "path mid" 1.0 (Nbhd.expansion_of_set path5 (set [ 1; 2 ]));
  check_true "empty set nan" (Float.is_nan (Nbhd.expansion_of_set path5 (Bitset.create 5)))

let test_unique_expansion_of_set () =
  let c5 = Gen.cycle 5 in
  check_float "cycle" 1.0 (Nbhd.unique_expansion_of_set c5 (set [ 0; 2 ]))

(* --- bipartite --- *)

let inst = Bipartite.of_edge_array ~s:3 ~n:4 [| 0; 0; 0; 1; 1; 1; 1; 2; 2; 2; 2; 3 |]

let test_bip_covered () =
  let s' = Bitset.of_list 3 [ 0; 2 ] in
  check_true "covered" (Bitset.elements (Nbhd.Bip.covered inst s') = [ 0; 1; 2; 3 ])

let test_bip_unique () =
  let s' = Bitset.of_list 3 [ 0; 1 ] in
  (* deg into {0,1}: n0 = 1 (from 0), n1 = 2 (0 and 1), n2 = 1 (from 1), n3 = 0. *)
  check_true "unique" (Bitset.elements (Nbhd.Bip.unique inst s') = [ 0; 2 ]);
  check_int "count" 2 (Nbhd.Bip.unique_count inst s')

let test_bip_unique_full () =
  let s' = Bitset.full 3 in
  check_true "full" (Bitset.elements (Nbhd.Bip.unique inst s') = [ 0; 3 ])

(* Walk the S side of [t] over [elts], decoding each step's set and passing
   it with the walk's counts to [check]. Returns the number of steps and
   whether the scratch counts are all zero again afterwards. *)
let walk_checked t elts check =
  let cnt = Array.make (Bipartite.n_count t) 0 in
  let steps = ref 0 in
  Nbhd.gray_walk ~offsets:(Bipartite.offsets_s t) ~adjacency:(Bipartite.adjacency_s t) cnt elts
    (Array.length elts) (fun i cov c ->
      incr steps;
      check (Nbhd.gray_set (Bipartite.s_count t) elts i) cov c);
  (!steps, Array.for_all (( = ) 0) cnt)

let test_gray_unique_matches_direct () =
  let steps, clean =
    walk_checked inst [| 0; 1; 2 |] (fun s' cov c ->
        check_int "gray covered vs direct" (Bitset.cardinal (Nbhd.Bip.covered inst s')) cov;
        check_int "gray vs direct" (Nbhd.Bip.unique_count inst s') c)
  in
  check_int "2^3 - 1 non-empty subsets" 7 steps;
  check_true "counts restored" clean

let qcheck_tests =
  let arb = arbitrary_bipartite ~smax:10 ~nmax:12 in
  [
    qcheck ~count:50 "gray enumeration complete and consistent"
      (fun t ->
        let s = Bipartite.s_count t in
        let seen = ref [] in
        let ok = ref true in
        let steps, clean =
          walk_checked t (Array.init s Fun.id) (fun s' cov c ->
              seen := Bitset.elements s' :: !seen;
              if Nbhd.Bip.unique_count t s' <> c then ok := false;
              if Bitset.cardinal (Nbhd.Bip.covered t s') <> cov then ok := false)
        in
        let distinct = List.sort_uniq compare !seen in
        !ok && clean && steps = (1 lsl s) - 1
        && List.length distinct = steps
        && not (List.mem [] distinct))
      arb;
    qcheck ~count:50 "unique ⊆ covered"
      (fun t ->
        let r = Wx_util.Rng.create 99 in
        let s' =
          Bitset.random_of_universe r (Bipartite.s_count t)
            (1 + Wx_util.Rng.int r (Bipartite.s_count t))
        in
        Bitset.subset (Nbhd.Bip.unique t s') (Nbhd.Bip.covered t s'))
      arb;
    qcheck ~count:50 "graph gamma1 vs bipartite instance"
      (fun g ->
        (* Extract the neighborhood instance of a random set and compare
           Γ¹(S) computed both ways. *)
        let n = Graph.n g in
        if n < 4 then true
        else begin
          let r = Wx_util.Rng.create 7 in
          let s = Bitset.random_of_universe r n (n / 3) in
          if Bitset.is_empty s then true
          else begin
            let t, _, _ = Bipartite.of_set_neighborhood g s in
            let direct = Bitset.cardinal (Nbhd.gamma1 g s) in
            let via_bip =
              Nbhd.Bip.unique_count t (Bitset.full (Bipartite.s_count t))
            in
            direct = via_bip
          end
        end)
      (arbitrary_graph ~lo:4 ~hi:20);
  ]

let suite =
  [
    Alcotest.test_case "gamma" `Quick test_gamma;
    Alcotest.test_case "gamma minus" `Quick test_gamma_minus;
    Alcotest.test_case "gamma1" `Quick test_gamma1;
    Alcotest.test_case "gamma1 excluding" `Quick test_gamma1_excluding;
    Alcotest.test_case "gamma1 subset check" `Quick test_gamma1_excluding_requires_subset;
    Alcotest.test_case "deg_in" `Quick test_deg_in;
    Alcotest.test_case "expansion of set" `Quick test_expansion_of_set;
    Alcotest.test_case "unique expansion of set" `Quick test_unique_expansion_of_set;
    Alcotest.test_case "bip covered" `Quick test_bip_covered;
    Alcotest.test_case "bip unique" `Quick test_bip_unique;
    Alcotest.test_case "bip unique full" `Quick test_bip_unique_full;
    Alcotest.test_case "gray vs direct" `Quick test_gray_unique_matches_direct;
  ]
  @ qcheck_tests
