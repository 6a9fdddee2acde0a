module T = Wireless_expanders.Theorems
module Instances = Wireless_expanders.Instances
module Gen = Wx_graph.Gen
module Graph = Wx_graph.Graph
open Common

let assert_holds (c : T.check) =
  if not c.T.holds then
    Alcotest.failf "%s on %s violated: predicted %.4f, measured %.4f" c.T.claim c.T.instance
      c.T.predicted c.T.measured

let connected_small () =
  List.filter (fun (_, g) -> Wx_graph.Traversal.is_connected g) (Instances.small_graphs ())

let test_obs_2_1_zoo () =
  List.iter (fun (name, g) -> List.iter assert_holds (T.obs_2_1 name g)) (connected_small ())

let test_lemma_3_1_regular_zoo () =
  List.iter
    (fun (name, g) ->
      if Wx_graph.Traversal.is_connected g then
        assert_holds (T.lemma_3_1 name g (rng ~salt:110 ())))
    (Instances.regular_graphs ())

let test_lemma_3_2_zoo () =
  List.iter (fun (name, g) -> assert_holds (T.lemma_3_2 name g)) (connected_small ())

let test_lemma_3_3_grid () =
  List.iter (fun gb -> List.iter assert_holds (T.lemma_3_3 gb)) (Instances.gbad_grid ())

let test_gbad_wireless_grid () =
  List.iter (fun gb -> assert_holds (T.gbad_wireless gb)) (Instances.gbad_grid ())

let test_theorem_1_1_instances () =
  List.iter
    (fun (name, t) ->
      if not (Wx_graph.Bipartite.has_isolated t) then
        assert_holds (T.theorem_1_1_bip name t (rng ~salt:111 ())))
    (Instances.bipartite_instances ())

let test_lemma_4_4_sizes () =
  List.iter
    (fun s -> List.iter assert_holds (T.lemma_4_4 (Wx_constructions.Core_graph.create s)))
    Instances.core_sizes

let test_lemma_4_6_grid () =
  List.iter
    (fun (delta_star, beta_star) ->
      let gc = Wx_constructions.Gen_core.create ~delta_star ~beta_star in
      List.iter assert_holds (T.lemma_4_6 gc))
    [ (64, 8.0); (64, 2.0); (64, 0.5); (128, 16.0); (32, 1.0); (256, 4.0) ]

let test_claims_4_9_4_10 () =
  let host = Gen.random_regular (rng ~salt:112 ()) 64 20 in
  let wc =
    Wx_constructions.Worst_case.create (rng ~salt:113 ()) ~eps:0.4 ~host ~host_beta:0.5
  in
  assert_holds (T.claim_4_9 wc (rng ~salt:114 ()) ~samples:300);
  assert_holds (T.claim_4_10 wc)

let test_corollary_5_1 () =
  List.iter
    (fun s -> List.iter assert_holds (T.corollary_5_1 (Wx_constructions.Core_graph.create s)))
    [ 8; 32; 128 ]

let test_section_5_lower_bound_decay () =
  let ch = Wx_constructions.Broadcast_chain.create (rng ~salt:115 ()) ~copies:3 ~s:8 in
  assert_holds
    (T.section_5_lower_bound ch Wx_radio.Sim_csr.decay ~seeds:[ 1; 2; 3 ])

let test_section_5_lower_bound_spokesmen () =
  let ch = Wx_constructions.Broadcast_chain.create (rng ~salt:116 ()) ~copies:3 ~s:8 in
  assert_holds
    (T.section_5_lower_bound ch
       (Wx_radio.Spokesmen_cast.protocol ch.Wx_constructions.Broadcast_chain.graph)
       ~seeds:[ 4; 5 ])

let test_instances_reproducible () =
  (* Same seeds → identical instances. *)
  let a = Instances.small_graphs () and b = Instances.small_graphs () in
  List.iter2
    (fun (n1, g1) (n2, g2) ->
      check_true "same name" (n1 = n2);
      check_true "same graph" (Graph.equal g1 g2))
    a b

(* The paper's relations between β, βu and βw with all three values taken
   from the brute-force oracle alone, and Theorems' Lemma 3.2 and 4.1
   checks reporting those same values. [ge] allows Theorems' float slack:
   2β − ∆ can equal βu in the reals. *)
let prop_relations_on_oracle g =
  let value m = match Brute_oracle.min_exact m g with Some (v, _) -> v | None -> nan in
  let beta = value Brute_oracle.Beta in
  let beta_u = value Brute_oracle.Beta_u in
  let beta_w = value Brute_oracle.Beta_w in
  let delta = Graph.max_degree g in
  let ge a b = a >= b -. 1e-9 in
  let lb = Wx_expansion.Bounds.lemma_3_2 ~beta ~delta in
  let l32 = T.lemma_3_2 "oracle" g and l41 = T.lemma_4_1 "oracle" g in
  ge beta_u lb
  && ge beta_w lb
  && (beta < 1.0 /. float_of_int delta
     || ge beta_w (Wx_expansion.Bounds.theorem_1_1 ~beta ~delta /. 9.0))
  && l32.T.measured = beta_u
  && l32.T.predicted = lb
  && l41.T.measured = beta_w
  && l41.T.predicted = lb

let suite =
  [
    Alcotest.test_case "Obs 2.1 zoo" `Slow test_obs_2_1_zoo;
    Alcotest.test_case "Lemma 3.1 regular" `Quick test_lemma_3_1_regular_zoo;
    Alcotest.test_case "Lemma 3.2 zoo" `Quick test_lemma_3_2_zoo;
    Alcotest.test_case "Lemma 3.3 grid" `Quick test_lemma_3_3_grid;
    Alcotest.test_case "Rmk 3.3 wireless" `Quick test_gbad_wireless_grid;
    Alcotest.test_case "Theorem 1.1 instances" `Slow test_theorem_1_1_instances;
    Alcotest.test_case "Lemma 4.4 all sizes" `Quick test_lemma_4_4_sizes;
    Alcotest.test_case "Lemma 4.6 grid" `Quick test_lemma_4_6_grid;
    Alcotest.test_case "Claims 4.9/4.10" `Quick test_claims_4_9_4_10;
    Alcotest.test_case "Corollary 5.1" `Quick test_corollary_5_1;
    Alcotest.test_case "§5 LB vs decay" `Slow test_section_5_lower_bound_decay;
    Alcotest.test_case "§5 LB vs spokesmen" `Slow test_section_5_lower_bound_spokesmen;
    Alcotest.test_case "instances reproducible" `Quick test_instances_reproducible;
    qcheck ~count:60 "Lemmas 3.2/4.1 and Theorem 1.1 on the brute-force oracle"
      prop_relations_on_oracle (arbitrary_graph ~lo:2 ~hi:12);
  ]
