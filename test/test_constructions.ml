module Cplus = Wx_constructions.Cplus
module Gbad = Wx_constructions.Gbad
module Core_graph = Wx_constructions.Core_graph
module Gen_core = Wx_constructions.Gen_core
module Worst_case = Wx_constructions.Worst_case
module Broadcast_chain = Wx_constructions.Broadcast_chain
module Families = Wx_constructions.Families
module Graph = Wx_graph.Graph
module Bipartite = Wx_graph.Bipartite
module Bitset = Wx_util.Bitset
module Nbhd = Wx_expansion.Nbhd
module Bip_measure = Wx_expansion.Bip_measure
module Floatx = Wx_util.Floatx
open Common

(* --- C+ --- *)

let test_cplus_shape () =
  let g = Cplus.create 6 in
  check_int "n" 7 (Graph.n g);
  check_int "m" (15 + 2) (Graph.m g);
  check_int "source degree" 2 (Graph.degree g (Cplus.source g))

let test_cplus_bad_set_has_no_unique () =
  let g = Cplus.create 6 in
  check_int "Γ¹ of {x,y,s0} empty" 0
    (Bitset.cardinal (Nbhd.gamma1 g (Cplus.bad_set g)))

(* --- Gbad --- *)

let test_gbad_shape () =
  let gb = Gbad.create ~s:6 ~delta:6 ~beta:4 in
  let t = Gbad.bip gb in
  check_int "|S|" 6 (Bipartite.s_count t);
  check_int "|N| = sβ" 24 (Bipartite.n_count t);
  for u = 0 to 5 do
    check_int "S degree ∆" 6 (Bipartite.deg_s t u)
  done

let test_gbad_consecutive_overlap () =
  let gb = Gbad.create ~s:6 ~delta:6 ~beta:4 in
  let t = Gbad.bip gb in
  (* |Γ(v_i) ∩ Γ(v_{i+1})| = ∆ − β = 2, cyclically. *)
  for i = 0 to 5 do
    let a = Bitset.of_array 24 (bip_row Bipartite.iter_s t i) in
    let b = Bitset.of_array 24 (bip_row Bipartite.iter_s t ((i + 1) mod 6)) in
    check_int "overlap" 2 (Bitset.cardinal (Bitset.inter a b))
  done

let test_gbad_nonadjacent_disjoint () =
  let gb = Gbad.create ~s:8 ~delta:4 ~beta:3 in
  let t = Gbad.bip gb in
  (* Windows two apart share nothing when s·β ≥ 2∆. *)
  let a = Bitset.of_array 24 (bip_row Bipartite.iter_s t 0) in
  let b = Bitset.of_array 24 (bip_row Bipartite.iter_s t 2) in
  check_true "disjoint" (Bitset.disjoint a b)

let test_gbad_unique_expansion_exact () =
  List.iter
    (fun (s, delta, beta) ->
      let gb = Gbad.create ~s ~delta ~beta in
      let t = Gbad.bip gb in
      let uniq = Nbhd.Bip.unique_count t (Bitset.full s) in
      check_int
        (Printf.sprintf "s=%d ∆=%d β=%d: s(2β−∆)" s delta beta)
        (s * ((2 * beta) - delta))
        uniq)
    [ (6, 6, 4); (6, 4, 2); (8, 8, 5); (10, 6, 3); (5, 4, 3) ]

let test_gbad_every_second () =
  (* Even s: every second vertex has fully unique windows → s/2·∆ covered. *)
  let gb = Gbad.create ~s:6 ~delta:6 ~beta:4 in
  let t = Gbad.bip gb in
  let uniq = Nbhd.Bip.unique_count t (Gbad.every_second gb) in
  check_int "s/2 · ∆" (3 * 6) uniq

let test_gbad_remark_functions () =
  let gb = Gbad.create ~s:6 ~delta:6 ~beta:4 in
  check_float "f(1) = ∆" 6.0 (Gbad.remark_f gb 1);
  check_float "f(2) = β" 4.0 (Gbad.remark_f gb 2);
  check_float "g(2) = ∆/2" 3.0 (Gbad.remark_g gb 2);
  check_float "g(3) = 2∆/3" 4.0 (Gbad.remark_g gb 3)

let test_gbad_validation () =
  Alcotest.check_raises "β too small" (Invalid_argument "Gbad.create: need ∆/2 <= β <= ∆")
    (fun () -> ignore (Gbad.create ~s:6 ~delta:6 ~beta:2));
  Alcotest.check_raises "s too small for wrap" (Invalid_argument "Gbad.create: need s·β >= 2∆")
    (fun () -> ignore (Gbad.create ~s:3 ~delta:6 ~beta:3))

(* --- core graph --- *)

let test_core_shape () =
  List.iter
    (fun s ->
      let cg = Core_graph.create s in
      let t = Core_graph.bip cg in
      check_int "|S|" s (Bipartite.s_count t);
      check_int "|N| = s log 2s" (s * (Floatx.log2i_floor s + 1)) (Bipartite.n_count t);
      for u = 0 to s - 1 do
        check_int "deg 2s−1" ((2 * s) - 1) (Bipartite.deg_s t u)
      done;
      check_int "∆N = s" s (Bipartite.max_deg_n t))
    [ 1; 2; 4; 8; 16 ]

let test_core_avg_degree_bound () =
  List.iter
    (fun s ->
      let cg = Core_graph.create s in
      let t = Core_graph.bip cg in
      let bound = 2.0 *. float_of_int s /. Floatx.log2 (2.0 *. float_of_int s) in
      check_true "δN ≤ 2s/log 2s" (Bipartite.delta_n t <= bound +. 1e-9))
    [ 2; 4; 8; 32; 128 ]

let test_core_blocks_partition_n () =
  let cg = Core_graph.create 8 in
  let total =
    let acc = ref 0 in
    for v = 1 to Core_graph.node_count cg do
      acc := !acc + Core_graph.block_size cg v
    done;
    !acc
  in
  check_int "blocks partition N" (Core_graph.n_size cg) total

let test_core_ancestors () =
  let cg = Core_graph.create 8 in
  let anc = Core_graph.ancestors cg 0 in
  check_int "path length log s + 1" 4 (List.length anc);
  check_true "ends at root" (List.hd (List.rev anc) = 1 || List.hd anc = 1)

let test_core_edge_rule () =
  (* Observation 4.5: leaf z adjacent to block of w iff w ancestor of z. *)
  let cg = Core_graph.create 8 in
  let t = Core_graph.bip cg in
  for j = 0 to 7 do
    let anc = Core_graph.ancestors cg j in
    let expected =
      List.fold_left (fun acc v -> acc + Core_graph.block_size cg v) 0 anc
    in
    check_int "degree = Σ ancestor blocks" expected (Bipartite.deg_s t j);
    List.iter
      (fun v ->
        let off = Core_graph.block_offset cg v in
        let adjacent = ref false in
        Bipartite.iter_s t j (fun w -> if w = off then adjacent := true);
        check_true "adjacent to ancestor block" !adjacent)
      anc
  done

(* The rows [Core_graph.create] writes directly are those of the edge
   list "leaf j to every block on its root path" built by counting sort. *)
let test_core_rows_match_edge_list () =
  List.iter
    (fun s ->
      let cg = Core_graph.create s in
      let es = ref [] in
      for j = 0 to s - 1 do
        List.iter
          (fun v ->
            for r = 0 to Core_graph.block_size cg v - 1 do
              es := (j, Core_graph.block_offset cg v + r) :: !es
            done)
          (Core_graph.ancestors cg j)
      done;
      let t = Core_graph.bip cg in
      let t' = Bipartite.of_edge_array ~s ~n:(Core_graph.n_size cg) (ends_of !es) in
      check_int "m" (Bipartite.m t') (Bipartite.m t);
      check_true "S rows"
        (Bipartite.offsets_s t = Bipartite.offsets_s t'
        && Bipartite.adjacency_s t = Bipartite.adjacency_s t');
      check_true "N rows"
        (Bipartite.offsets_n t = Bipartite.offsets_n t'
        && Bipartite.adjacency_n t = Bipartite.adjacency_n t'))
    [ 1; 2; 4; 8; 16; 32 ]

let test_core_dp_max_unique_matches_brute_force () =
  List.iter
    (fun s ->
      let cg = Core_graph.create s in
      let brute, _ = Bip_measure.exact_max_unique (Core_graph.bip cg) in
      check_int (Printf.sprintf "s=%d" s) brute (Core_graph.dp_max_unique cg))
    [ 1; 2; 4; 8; 16 ]

let test_core_dp_witness_achieves_max () =
  List.iter
    (fun s ->
      let cg = Core_graph.create s in
      let w = Core_graph.dp_max_unique_witness cg in
      let v = Nbhd.Bip.unique_count (Core_graph.bip cg) w in
      check_int (Printf.sprintf "s=%d witness" s) (Core_graph.dp_max_unique cg) v)
    [ 2; 4; 8; 32; 64 ]

let test_core_dp_max_unique_cap () =
  (* Lemma 4.4(5): ≤ 2s, even at sizes brute force cannot reach. *)
  List.iter
    (fun s ->
      check_true
        (Printf.sprintf "s=%d cap" s)
        (Core_graph.dp_max_unique (Core_graph.create s) <= 2 * s))
    [ 2; 8; 64; 256; 1024 ]

let test_core_dp_min_coverage_matches_brute_force () =
  let s = 8 in
  let cg = Core_graph.create s in
  let t = Core_graph.bip cg in
  let mins = Core_graph.dp_min_coverage cg in
  (* Brute force per size. *)
  let brute = Array.make (s + 1) max_int in
  let full = Bitset.full s in
  iter_subsets full (fun sub ->
      let k = Bitset.cardinal sub in
      let cov = Bitset.cardinal (Nbhd.Bip.covered t sub) in
      if cov < brute.(k) then brute.(k) <- cov);
  brute.(0) <- 0;
  for k = 0 to s do
    check_int (Printf.sprintf "k=%d" k) brute.(k) mins.(k)
  done

let test_core_expansion_property () =
  (* Lemma 4.4(4) at scale via the DP. *)
  List.iter
    (fun s ->
      let cg = Core_graph.create s in
      let mins = Core_graph.dp_min_coverage cg in
      let log2s = Floatx.log2 (2.0 *. float_of_int s) in
      for k = 1 to s do
        check_true
          (Printf.sprintf "s=%d k=%d" s k)
          (float_of_int mins.(k) >= (log2s *. float_of_int k) -. 1e-9)
      done)
    [ 2; 8; 64; 256 ]

let test_core_unique_coverage_of_matches_generic () =
  let cg = Core_graph.create 16 in
  let t = Core_graph.bip cg in
  let r = rng ~salt:80 () in
  for _ = 1 to 50 do
    let k = 1 + Wx_util.Rng.int r 16 in
    let s' = Bitset.random_of_universe r 16 k in
    check_int "tree decomposition = generic"
      (Nbhd.Bip.unique_count t s')
      (Core_graph.unique_coverage_of cg s')
  done

let test_core_rejects_non_power_of_two () =
  Alcotest.check_raises "non pow2"
    (Invalid_argument "Core_graph.create: s must be a power of two") (fun () ->
      ignore (Core_graph.create 6))

(* --- generalized core --- *)

let test_blow_up_n () =
  let cg = Core_graph.create 4 in
  let b = Gen_core.blow_up_n cg 3 in
  check_int "|N| tripled" (3 * Core_graph.n_size cg) (Bipartite.n_count b);
  check_int "S degree tripled" (3 * 7) (Bipartite.deg_s b 0);
  check_int "N degree unchanged" (Bipartite.max_deg_n (Core_graph.bip cg)) (Bipartite.max_deg_n b)

let test_blow_up_s () =
  let cg = Core_graph.create 4 in
  let b = Gen_core.blow_up_s cg 3 in
  check_int "|S| tripled" 12 (Bipartite.s_count b);
  check_int "S degree unchanged" 7 (Bipartite.deg_s b 0);
  check_int "N degree tripled" (3 * 4) (Bipartite.max_deg_n b)

let test_gen_core_regimes () =
  (* Large β* relative to ∆* → blow-up-N; small → blow-up-S. *)
  let a = Gen_core.create ~delta_star:64 ~beta_star:8.0 in
  check_true "regime 4.7" (a.Gen_core.regime = Gen_core.Blow_up_n);
  let b = Gen_core.create ~delta_star:64 ~beta_star:0.5 in
  check_true "regime 4.8" (b.Gen_core.regime = Gen_core.Blow_up_s)

let test_gen_core_achieved_close_to_target () =
  let t = Gen_core.create ~delta_star:64 ~beta_star:4.0 in
  check_true "∆ within 2x" (t.Gen_core.achieved_delta <= 2 * t.Gen_core.target_delta);
  check_true "β within 4x of target"
    (t.Gen_core.achieved_beta >= t.Gen_core.target_beta /. 4.0
    && t.Gen_core.achieved_beta <= t.Gen_core.target_beta *. 4.0)

let test_gen_core_max_unique_blow_up_n () =
  let t = Gen_core.create ~delta_star:48 ~beta_star:6.0 in
  if Bipartite.s_count t.Gen_core.bip <= 16 then begin
    let brute, _ = Bip_measure.exact_max_unique t.Gen_core.bip in
    check_int "DP matches brute" brute (Gen_core.max_unique_exact t)
  end

let test_gen_core_max_unique_blow_up_s () =
  let cg = Core_graph.create 4 in
  let b = Gen_core.blow_up_s cg 2 in
  let brute, _ = Bip_measure.exact_max_unique b in
  check_int "S-side copies add nothing" (Core_graph.dp_max_unique cg) brute

let test_gen_core_validation () =
  Alcotest.check_raises "β* too large"
    (Invalid_argument "Gen_core.create: need 2e/∆* <= β* <= ∆*/(2e)") (fun () ->
      ignore (Gen_core.create ~delta_star:8 ~beta_star:4.0))

(* --- worst case --- *)

let make_worst_case () =
  (* Lemma 4.6 needs 2e/∆* ≤ β* ≤ ∆*/(2e) with ∆* = ε∆ and β* = β/ε, i.e.
     a host with ∆ ≥ 2e·β/ε²; a 20-regular host with β = 0.5, ε = 0.4 fits. *)
  let r = rng ~salt:81 () in
  let host = Wx_graph.Gen.random_regular r 64 20 in
  Worst_case.create (rng ~salt:82 ()) ~eps:0.4 ~host ~host_beta:0.5

let test_worst_case_shape () =
  let wc = make_worst_case () in
  let n_star_count = Array.length wc.Worst_case.n_star in
  check_int "new vertices appended"
    (wc.Worst_case.host_n + Bitset.cardinal wc.Worst_case.s_star)
    (Graph.n wc.Worst_case.graph);
  (* N* vertices distinct. *)
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun v ->
      check_true "distinct" (not (Hashtbl.mem tbl v));
      Hashtbl.add tbl v ())
    wc.Worst_case.n_star;
  check_true "N* within host" (Array.for_all (fun v -> v < wc.Worst_case.host_n) wc.Worst_case.n_star);
  check_true "nonempty" (n_star_count > 0)

let test_worst_case_s_star_edges_only_to_n_star () =
  let wc = make_worst_case () in
  let n_star = Bitset.of_array (Graph.n wc.Worst_case.graph) wc.Worst_case.n_star in
  Bitset.iter
    (fun v ->
      Graph.iter_neighbors wc.Worst_case.graph v (fun w ->
          check_true "neighbor in N*" (Bitset.mem n_star w)))
    wc.Worst_case.s_star

let test_worst_case_degree_bound () =
  let wc = make_worst_case () in
  check_true "∆̃ respected"
    (Graph.max_degree wc.Worst_case.graph <= Worst_case.predicted_delta_tilde wc)

let test_worst_case_wireless_cap () =
  let wc = make_worst_case () in
  check_true "claim 4.10 cap"
    (Worst_case.s_star_wireless_exact wc <= Worst_case.predicted_wireless_cap wc +. 1e-9)

(* --- broadcast chain --- *)

let test_chain_shape () =
  let ch = Broadcast_chain.create (rng ~salt:83 ()) ~copies:4 ~s:8 in
  let per_copy = 8 + Core_graph.n_size (Core_graph.create 8) in
  check_int "total" (1 + (4 * per_copy)) (Broadcast_chain.total_vertices ch);
  check_int "relays" 4 (Array.length ch.Broadcast_chain.relays);
  (* Root adjacent to all of S¹. *)
  Array.iter
    (fun v -> check_true "root—S¹" (Graph.mem_edge ch.Broadcast_chain.graph 0 v))
    ch.Broadcast_chain.s_vertices.(0)

let test_chain_relays_in_their_n () =
  let ch = Broadcast_chain.create (rng ~salt:84 ()) ~copies:3 ~s:4 in
  Array.iteri
    (fun i rt -> check_true "relay ∈ Nⁱ" (Array.mem rt ch.Broadcast_chain.n_vertices.(i)))
    ch.Broadcast_chain.relays

let test_chain_connected_and_diameter () =
  let ch = Broadcast_chain.create (rng ~salt:85 ()) ~copies:3 ~s:4 in
  let g = ch.Broadcast_chain.graph in
  check_true "connected" (Wx_graph.Traversal.is_connected g);
  let d = Wx_graph.Traversal.diameter g in
  let est = Broadcast_chain.diameter_estimate ch in
  check_true
    (Printf.sprintf "diameter %d ≈ estimate %d" d est)
    (d >= est - 2 && d <= est + 3)

let test_chain_relay_order () =
  (* Observation 5.2: relay i is strictly closer to the root than relay i+1. *)
  let ch = Broadcast_chain.create (rng ~salt:86 ()) ~copies:4 ~s:4 in
  let dist = Wx_graph.Traversal.bfs ch.Broadcast_chain.graph ch.Broadcast_chain.root in
  let relays = ch.Broadcast_chain.relays in
  for i = 0 to Array.length relays - 2 do
    check_true "monotone distance" (dist.(relays.(i)) < dist.(relays.(i + 1)))
  done

(* --- families --- *)

let test_families_catalog () =
  check_true "nonempty" (List.length Families.all >= 10);
  check_true "partition"
    (List.length Families.low_arboricity + List.length Families.expanders
    = List.length Families.all)

let test_families_make () =
  let r = rng ~salt:87 () in
  List.iter
    (fun f ->
      let g = f.Families.make r 30 in
      check_true (f.Families.name ^ " nonempty") (Graph.n g > 0);
      check_true (f.Families.name ^ " has edges") (Graph.m g > 0))
    Families.all

let test_families_find () =
  check_true "find grid" ((Families.find "grid").Families.name = "grid");
  Alcotest.check_raises "missing" Not_found (fun () -> ignore (Families.find "nope"))

let test_families_low_arboricity_really_low () =
  let r = rng ~salt:88 () in
  List.iter
    (fun f ->
      let g = f.Families.make r 40 in
      check_true
        (f.Families.name ^ " peeling bound <= 3")
        (Wx_graph.Arboricity.lower_bound_peeling g <= 3))
    Families.low_arboricity

let suite =
  [
    Alcotest.test_case "cplus shape" `Quick test_cplus_shape;
    Alcotest.test_case "cplus bad set" `Quick test_cplus_bad_set_has_no_unique;
    Alcotest.test_case "gbad shape" `Quick test_gbad_shape;
    Alcotest.test_case "gbad overlap" `Quick test_gbad_consecutive_overlap;
    Alcotest.test_case "gbad disjoint windows" `Quick test_gbad_nonadjacent_disjoint;
    Alcotest.test_case "gbad βu exact" `Quick test_gbad_unique_expansion_exact;
    Alcotest.test_case "gbad every second" `Quick test_gbad_every_second;
    Alcotest.test_case "gbad remark f/g" `Quick test_gbad_remark_functions;
    Alcotest.test_case "gbad validation" `Quick test_gbad_validation;
    Alcotest.test_case "core shape" `Quick test_core_shape;
    Alcotest.test_case "core avg degree" `Quick test_core_avg_degree_bound;
    Alcotest.test_case "core blocks partition" `Quick test_core_blocks_partition_n;
    Alcotest.test_case "core ancestors" `Quick test_core_ancestors;
    Alcotest.test_case "core edge rule" `Quick test_core_edge_rule;
    Alcotest.test_case "core rows = edge-list build" `Quick test_core_rows_match_edge_list;
    Alcotest.test_case "core DP max = brute" `Quick test_core_dp_max_unique_matches_brute_force;
    Alcotest.test_case "core DP witness" `Quick test_core_dp_witness_achieves_max;
    Alcotest.test_case "core DP cap 2s" `Quick test_core_dp_max_unique_cap;
    Alcotest.test_case "core DP min = brute" `Quick test_core_dp_min_coverage_matches_brute_force;
    Alcotest.test_case "core expansion L4.4(4)" `Quick test_core_expansion_property;
    Alcotest.test_case "core tree vs generic" `Quick test_core_unique_coverage_of_matches_generic;
    Alcotest.test_case "core rejects non-pow2" `Quick test_core_rejects_non_power_of_two;
    Alcotest.test_case "blow up N" `Quick test_blow_up_n;
    Alcotest.test_case "blow up S" `Quick test_blow_up_s;
    Alcotest.test_case "gen core regimes" `Quick test_gen_core_regimes;
    Alcotest.test_case "gen core achieved params" `Quick test_gen_core_achieved_close_to_target;
    Alcotest.test_case "gen core DP (N blow-up)" `Quick test_gen_core_max_unique_blow_up_n;
    Alcotest.test_case "gen core DP (S blow-up)" `Quick test_gen_core_max_unique_blow_up_s;
    Alcotest.test_case "gen core validation" `Quick test_gen_core_validation;
    Alcotest.test_case "worst case shape" `Quick test_worst_case_shape;
    Alcotest.test_case "worst case S* edges" `Quick test_worst_case_s_star_edges_only_to_n_star;
    Alcotest.test_case "worst case degree" `Quick test_worst_case_degree_bound;
    Alcotest.test_case "worst case wireless cap" `Quick test_worst_case_wireless_cap;
    Alcotest.test_case "chain shape" `Quick test_chain_shape;
    Alcotest.test_case "chain relays" `Quick test_chain_relays_in_their_n;
    Alcotest.test_case "chain connected+diameter" `Quick test_chain_connected_and_diameter;
    Alcotest.test_case "chain relay order" `Quick test_chain_relay_order;
    Alcotest.test_case "families catalog" `Quick test_families_catalog;
    Alcotest.test_case "families make" `Quick test_families_make;
    Alcotest.test_case "families find" `Quick test_families_find;
    Alcotest.test_case "families low arboricity" `Quick test_families_low_arboricity_really_low;
  ]
