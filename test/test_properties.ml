(* Cross-module property tests (qcheck): invariants that tie subsystems
   together rather than exercising one module. *)

module Graph = Wx_graph.Graph
module Gen = Wx_graph.Gen
module Bipartite = Wx_graph.Bipartite
module Bitset = Wx_util.Bitset
module Rng = Wx_util.Rng
module Nbhd = Wx_expansion.Nbhd
open Common

let connected_arbitrary ~lo ~hi =
  (* G(n,p) conditioned on connectivity by unioning with a random cycle. *)
  QCheck.make
    ~print:(fun g -> Format.asprintf "%a" Graph.pp_adjacency g)
    QCheck.Gen.(
      let* n = int_range lo hi in
      let* p = float_range 0.1 0.5 in
      let* seed = int_range 0 1_000_000 in
      let r = Rng.create seed in
      let base = Wx_graph.Gen.gnp r n p in
      let perm = Rng.permutation r n in
      let cycle_edges = List.init n (fun i -> (perm.(i), perm.((i + 1) mod n))) in
      return (Graph.of_edges n (Graph.edges base @ cycle_edges)))

(* Every S-vertex shares N-vertex 0 and owns one private N-vertex. Greedy
   takes one S-vertex (covering 2), after which every add has zero
   marginal gain, so it stops at 2 below the Lemma A.1 bar |N|/Delta_S =
   5/2; taking all of S covers the four private vertices. *)
let test_greedy_star () =
  let t = Gen.random_bipartite_sdeg (Rng.create 45) ~s:4 ~n:5 ~d:2 in
  let nbrs i = List.sort compare (Array.to_list (bip_row Bipartite.iter_s t i)) in
  Alcotest.(check (list (list int)))
    "star instance" [ [ 0; 1 ]; [ 0; 3 ]; [ 0; 4 ]; [ 0; 2 ] ] (List.init 4 nbrs);
  let covered solve = (solve t).Wx_spokesmen.Solver.covered in
  check_int "greedy" 2 (covered Wx_spokesmen.Greedy.solve);
  check_int "naive" 4 (covered Wx_spokesmen.Naive.solve);
  check_int "exact" 4 (Wx_spokesmen.Exact.optimum t)

let suite =
  [
    (* Schedule synthesis completes and certifies on arbitrary connected
       graphs — the strongest end-to-end invariant in the repo. *)
    qcheck ~count:25 "schedule completes on connected graphs"
      (fun g ->
        let sch = Wx_radio.Schedule.synthesize (Rng.create 9) g ~source:0 in
        let ok, informed = Wx_radio.Schedule.certify g sch in
        ok && informed = Graph.n g
        && Wx_radio.Schedule.length sch >= Wx_radio.Schedule.lower_bound_rounds g ~source:0)
      (connected_arbitrary ~lo:4 ~hi:18);
    (* Graph IO roundtrips on arbitrary graphs. *)
    qcheck ~count:50 "graph io roundtrip"
      (fun g -> Graph.equal g (Wx_graph.Graph_io.of_string (Wx_graph.Graph_io.to_string g)))
      (arbitrary_graph ~lo:1 ~hi:25);
    (* Max-flow min-cut on tiny random unit networks: flow value equals the
       brute-force minimum cut (enumerating all source-side sets). *)
    qcheck ~count:40 "max-flow = brute min-cut"
      (fun g ->
        let n = Graph.n g in
        if n < 2 then true
        else begin
          let f = Wx_graph.Flow.create n in
          Graph.iter_edges g (fun u v ->
              Wx_graph.Flow.add_edge f u v 1;
              Wx_graph.Flow.add_edge f v u 1);
          let flow = Wx_graph.Flow.max_flow f ~source:0 ~sink:(n - 1) in
          (* Brute-force min cut over subsets containing 0 but not n-1. *)
          let best = ref max_int in
          Wx_util.Combi.iter_all_subsets n (fun mask ->
              if mask land 1 = 1 && mask lsr (n - 1) land 1 = 0 then begin
                let cut = ref 0 in
                Graph.iter_edges g (fun u v ->
                    let su = mask lsr u land 1 = 1 and sv = mask lsr v land 1 = 1 in
                    if su <> sv then incr cut);
                if !cut < !best then best := !cut
              end);
          flow = !best
        end)
      (arbitrary_graph ~lo:2 ~hi:10);
    (* Exact arboricity from the flow machinery is sandwiched between the
       peeling lower bound and the degeneracy. *)
    qcheck ~count:30 "arboricity sandwich (flow)"
      (fun g ->
        if Graph.m g = 0 then true
        else begin
          let a = Wx_graph.Densest.arboricity_exact g in
          Wx_graph.Arboricity.lower_bound_peeling g <= a
          && a <= max 1 (Wx_graph.Arboricity.degeneracy g)
        end)
      (arbitrary_graph ~lo:2 ~hi:20);
    (* Γ¹_S(S′) ⊆ Γ⁻(S) for arbitrary S′ ⊆ S. *)
    qcheck ~count:50 "unique neighborhood inside boundary"
      (fun g ->
        let n = Graph.n g in
        if n < 3 then true
        else begin
          let r = Rng.create 4 in
          let s = Bitset.random_of_universe r n (max 1 (n / 3)) in
          let s' = Bitset.random_subset r s 0.5 in
          Bitset.subset (Nbhd.gamma1_excluding g s s') (Nbhd.gamma_minus g s)
        end)
      (arbitrary_graph ~lo:3 ~hi:20);
    (* Radio step: newly informed are exactly the silent vertices with a
       unique transmitting neighbor — cross-checked against a naive
       recomputation. *)
    qcheck ~count:50 "radio reception rule vs naive recomputation"
      (fun g ->
        let n = Graph.n g in
        if n < 2 then true
        else begin
          let r = Rng.create 11 in
          let t = Wx_radio.Sim_csr.create ~jobs:1 g ~source:0 in
          (* Grow an informed set a few rounds with flooding, then replay a
             random transmitter subset. *)
          for _ = 1 to 2 do
            ignore (Wx_radio.Sim_csr.step t Wx_radio.Sim_csr.flood r)
          done;
          let informed = Wx_radio.Sim_csr.informed_set t in
          let tx = Bitset.random_subset r informed 0.6 in
          let fill t _ = Bitset.iter (Wx_radio.Sim_csr.transmit t) tx in
          ignore (Wx_radio.Sim_csr.step t { Wx_radio.Sim_csr.name = "tx"; fill } r);
          let newly = Bitset.diff (Wx_radio.Sim_csr.informed_set t) informed in
          let expected = Bitset.create n in
          for w = 0 to n - 1 do
            if (not (Bitset.mem informed w)) && not (Bitset.mem tx w) then begin
              let c = ref 0 in
              Graph.iter_neighbors g w (fun v -> if Bitset.mem tx v then incr c);
              if !c = 1 then Bitset.add_inplace expected w
            end
          done;
          Bitset.equal newly expected
        end)
      (arbitrary_graph ~lo:2 ~hi:20);
    (* Lemma A.1: the naive procedure uniquely covers at least |N|/Delta_S. *)
    qcheck ~count:40 "naive meets the gamma/Delta bar"
      (fun t ->
        if Bipartite.has_isolated t then true
        else begin
          let r = Wx_spokesmen.Naive.solve t in
          float_of_int r.Wx_spokesmen.Solver.covered
          >= (float_of_int (Bipartite.n_count t)
              /. float_of_int (max 1 (Bipartite.max_deg_s t)))
             -. 1e-9
        end)
      (arbitrary_bipartite ~smax:12 ~nmax:16);
    (* Greedy has no paper guarantee (it can stall below the Lemma A.1 bar,
       see the star case); what holds is that its first pick, the largest
       S-vertex, already covers max_deg_s and later picks never lose. *)
    qcheck ~count:40 "greedy covers at least max_deg_s"
      (fun t ->
        if Bipartite.has_isolated t then true
        else (Wx_spokesmen.Greedy.solve t).Wx_spokesmen.Solver.covered >= Bipartite.max_deg_s t)
      (arbitrary_bipartite ~smax:12 ~nmax:16);
    Alcotest.test_case "greedy stalls below the bar on a star" `Quick test_greedy_star;
    (* Core graph DP vs brute force at random power-of-two sizes. *)
    qcheck ~count:10 "core DP vs brute force (random sizes)"
      (fun b ->
        let s = 1 lsl (1 + (abs b mod 4)) in
        let cg = Wx_constructions.Core_graph.create s in
        let brute, _ = Wx_expansion.Bip_measure.exact_max_unique (Wx_constructions.Core_graph.bip cg) in
        brute = Wx_constructions.Core_graph.dp_max_unique cg)
      QCheck.small_signed_int;
    (* Edge connectivity ≤ min degree, and = min degree on the complete
       graphs we can afford. *)
    qcheck ~count:25 "edge connectivity <= min degree"
      (fun g ->
        if Graph.n g < 2 then true
        else Wx_graph.Connectivity.edge_connectivity g <= max 0 (Graph.min_degree g))
      (arbitrary_graph ~lo:2 ~hi:14);
  ]
