module Solver = Wx_spokesmen.Solver
module Decay = Wx_spokesmen.Decay
module Naive = Wx_spokesmen.Naive
module Partition = Wx_spokesmen.Partition
module Buckets = Wx_spokesmen.Buckets
module Exact = Wx_spokesmen.Exact
module Greedy = Wx_spokesmen.Greedy
module Portfolio = Wx_spokesmen.Portfolio
module Bounds = Wx_expansion.Bounds
module Bipartite = Wx_graph.Bipartite
module Gen = Wx_graph.Gen
module Bitset = Wx_util.Bitset
open Common

let fixtures () =
  let r = rng ~salt:60 () in
  [
    ("rand-10x20-d3", Gen.random_bipartite_sdeg r ~s:10 ~n:20 ~d:3);
    ("rand-12x8-d4", Gen.random_bipartite_sdeg r ~s:12 ~n:8 ~d:4);
    ("rand-14x14-d2", Gen.random_bipartite_sdeg r ~s:14 ~n:14 ~d:2);
    ("core-8", Wx_constructions.Core_graph.bip (Wx_constructions.Core_graph.create 8));
    ("gbad", Wx_constructions.Gbad.bip (Wx_constructions.Gbad.create ~s:6 ~delta:6 ~beta:4));
  ]

let gamma t = float_of_int (Bipartite.n_count t)

let check_valid name t (r : Solver.result) =
  check_true (name ^ ": chosen within S side")
    (Bitset.universe_size r.Solver.chosen = Bipartite.s_count t);
  check_int (name ^ ": covered consistent") (Solver.evaluate t r.Solver.chosen) r.Solver.covered

(* --- generic solver contracts --- *)

let test_all_solvers_valid () =
  let r = rng ~salt:61 () in
  List.iter
    (fun (name, t) ->
      List.iter
        (fun (sname, solve) ->
          let result = solve r t in
          check_valid (name ^ "/" ^ sname) t result)
        Portfolio.solvers)
    (fixtures ())

(* --- decay --- *)

let test_decay_buckets_partition () =
  let t = Gen.random_bipartite_sdeg (rng ~salt:62 ()) ~s:10 ~n:30 ~d:4 in
  let bs = Decay.buckets t in
  (* Buckets hold distinct vertices with the right degree ranges. *)
  let seen = Hashtbl.create 32 in
  Array.iter
    (fun (j, ws) ->
      Array.iter
        (fun w ->
          check_true "no dup" (not (Hashtbl.mem seen w));
          Hashtbl.add seen w ();
          let d = Bipartite.deg_n t w in
          check_true "degree in bucket" (d >= 1 lsl j && d < 1 lsl (j + 1)))
        ws)
    bs

let test_decay_bucket_of_degree () =
  check_int "1" 0 (Decay.bucket_of_degree 1);
  check_int "2" 1 (Decay.bucket_of_degree 2);
  check_int "3" 1 (Decay.bucket_of_degree 3);
  check_int "8" 3 (Decay.bucket_of_degree 8)

let test_decay_largest_bucket_majority () =
  (* The largest bucket must hold ≥ |N'|/number-of-buckets vertices. *)
  let t = Gen.random_bipartite_sdeg (rng ~salt:63 ()) ~s:16 ~n:40 ~d:5 in
  let bs = Decay.buckets t in
  let total = Array.fold_left (fun acc (_, ws) -> acc + Array.length ws) 0 bs in
  let _, big = Decay.largest_bucket t in
  check_true "pigeonhole" (Array.length big * Array.length bs >= total)

let test_decay_achieves_bound_on_fixtures () =
  (* Lemma 4.2's guarantee is in expectation; with 64 reps the best draw
     should comfortably clear a conservative e⁻³/2-of-largest-bucket bar on
     these fixed seeds. *)
  let r = rng ~salt:64 () in
  List.iter
    (fun (name, t) ->
      if Bipartite.n_count t >= Bipartite.s_count t then begin
        let result = Decay.solve_direct ~reps:64 r t in
        let _, big = Decay.largest_bucket t in
        let bar = exp (-3.0) /. 2.0 *. float_of_int (Array.length big) in
        check_true
          (Printf.sprintf "%s: %d covered vs bar %.2f" name result.Solver.covered bar)
          (float_of_int result.Solver.covered >= bar)
      end)
    (fixtures ())

let test_greedy_subcover () =
  let t = Gen.random_bipartite_sdeg (rng ~salt:65 ()) ~s:12 ~n:6 ~d:3 in
  let full = Bitset.full 12 in
  let sub = Decay.greedy_subcover t full in
  check_true "subset" (Bitset.subset sub full);
  (* Same coverage, and |S″| ≤ |Γ(S′)|. *)
  check_true "coverage preserved"
    (Bitset.equal
       (Wx_expansion.Nbhd.Bip.covered t sub)
       (Wx_expansion.Nbhd.Bip.covered t full));
  check_true "size bound"
    (Bitset.cardinal sub <= Bitset.cardinal (Wx_expansion.Nbhd.Bip.covered t full))

let test_decay_reduced_runs () =
  (* β < 1 instance: more S than N. *)
  let t = Gen.random_bipartite_sdeg (rng ~salt:66 ()) ~s:30 ~n:10 ~d:2 in
  let r = Decay.solve ~reps:32 (rng ~salt:67 ()) t in
  check_true "covers something" (r.Solver.covered > 0)

(* --- naive (Lemma A.1) --- *)

let test_naive_guarantee () =
  List.iter
    (fun (name, t) ->
      if not (Bipartite.has_isolated t) then begin
        let tr = Naive.run t in
        (* Lemma A.1's ∆ is the max S-side degree (see the note after it). *)
        let guarantee = gamma t /. float_of_int (max 1 (Bipartite.max_deg_s t)) in
        check_true
          (Printf.sprintf "%s: |Nuni|=%d >= γ/∆=%.2f" name (Bitset.cardinal tr.Naive.n_uni)
             guarantee)
          (float_of_int (Bitset.cardinal tr.Naive.n_uni) >= guarantee -. 1e-9)
      end)
    (fixtures ())

let test_naive_nuni_unique_in_suni () =
  List.iter
    (fun (_, t) ->
      if not (Bipartite.has_isolated t) then begin
        let tr = Naive.run t in
        Bitset.iter
          (fun w ->
            let c =
              Array.fold_left
                (fun acc u -> if Bitset.mem tr.Naive.s_uni u then acc + 1 else acc)
                0 (bip_row Bipartite.iter_n t w)
            in
            check_int "exactly one spokesman" 1 c)
          tr.Naive.n_uni
      end)
    (fixtures ())

let test_naive_tolerates_isolated () =
  (* Isolated N-vertices are excluded rather than fatal: the coverable part
     is still handled. *)
  let t = Bipartite.of_edge_array ~s:2 ~n:2 [| 0; 0 |] in
  let tr = Naive.run t in
  check_int "covers the coverable vertex" 1 (Bitset.cardinal tr.Naive.n_uni)

(* --- Procedure Partition --- *)

let test_partition_conditions () =
  List.iter
    (fun (name, t) ->
      let st = Partition.run t in
      List.iter
        (fun (cond, ok) -> check_true (Printf.sprintf "%s: %s" name cond) ok)
        (Partition.check_conditions t st))
    (fixtures ())

let test_partition_terminal_gains_nonpositive () =
  let t = Gen.random_bipartite_sdeg (rng ~salt:68 ()) ~s:15 ~n:25 ~d:3 in
  let st = Partition.run t in
  if not (Bitset.is_empty st.Partition.n_tmp) then
    Bitset.iter
      (fun v -> check_true "gain <= 0" (Partition.gain t st v <= 0))
      st.Partition.s_tmp

let test_partition_sides_partitioned () =
  let t = Gen.random_bipartite_sdeg (rng ~salt:69 ()) ~s:15 ~n:25 ~d:3 in
  let st = Partition.run t in
  check_true "S split"
    (Bitset.is_empty (Bitset.inter st.Partition.s_uni st.Partition.s_tmp));
  check_int "S total" 15
    (Bitset.cardinal st.Partition.s_uni + Bitset.cardinal st.Partition.s_tmp);
  let nu = st.Partition.n_uni and nm = st.Partition.n_many and nt = st.Partition.n_tmp in
  check_true "N disjoint"
    (Bitset.is_empty (Bitset.inter nu nm)
    && Bitset.is_empty (Bitset.inter nu nt)
    && Bitset.is_empty (Bitset.inter nm nt))

let test_partition_capped_guarantee () =
  (* Lemma A.3: coverage ≥ γ/(8δ). *)
  List.iter
    (fun (name, t) ->
      if not (Bipartite.has_isolated t) then begin
        let r = Partition.solve_degree_capped t in
        let bound = gamma t *. Bounds.partition_fraction ~delta_n:(Bipartite.delta_n t) in
        check_true
          (Printf.sprintf "%s: %d >= %.2f" name r.Solver.covered bound)
          (float_of_int r.Solver.covered >= bound -. 1e-9)
      end)
    (fixtures ())

let test_partition_recursive_guarantee () =
  (* Lemma A.13: coverage ≥ γ/(9·log 2δ). *)
  List.iter
    (fun (name, t) ->
      if not (Bipartite.has_isolated t) then begin
        let r = Partition.solve_recursive t in
        let bound = gamma t *. Bounds.near_optimal_fraction ~delta_n:(Bipartite.delta_n t) in
        check_true
          (Printf.sprintf "%s: %d >= %.2f" name r.Solver.covered bound)
          (float_of_int r.Solver.covered >= bound -. 1e-9)
      end)
    (fixtures ())

(* --- buckets --- *)

let test_buckets_classes_cover_n () =
  let t = Gen.random_bipartite_sdeg (rng ~salt:70 ()) ~s:12 ~n:30 ~d:4 in
  let cs = Buckets.classes t in
  let total = Array.fold_left (fun acc (_, ws) -> acc + Array.length ws) 0 cs in
  let positive = ref 0 in
  for w = 0 to Bipartite.n_count t - 1 do
    if Bipartite.deg_n t w > 0 then incr positive
  done;
  check_int "every positive-degree vertex classified" !positive total

let test_buckets_class_degree_ranges () =
  let t = Gen.random_bipartite_sdeg (rng ~salt:71 ()) ~s:12 ~n:30 ~d:4 in
  let c = 2.0 in
  Array.iter
    (fun (i, ws) ->
      Array.iter
        (fun w ->
          let d = float_of_int (Bipartite.deg_n t w) in
          check_true "range" (d >= (c ** float_of_int (i - 1)) -. 1e-9 && d < c ** float_of_int i))
        ws)
    (Buckets.classes ~c t)

let test_buckets_solver_guarantee () =
  (* Corollary A.6 with the optimal c: ≥ 0.20087·γ/log₂∆ (∆ = max N degree). *)
  List.iter
    (fun (name, t) ->
      if not (Bipartite.has_isolated t) then begin
        let r = Buckets.solve_all_classes t in
        (* Class count is ⌈log_c ∆⌉, so the provable bound carries a ceiling. *)
        let c = Bounds.c_star in
        let classes =
          Float.ceil (log (float_of_int (max 2 (Bipartite.max_deg_n t))) /. log c)
        in
        let bound = gamma t /. (2.0 *. (1.0 +. c) *. classes) in
        check_true
          (Printf.sprintf "%s: %d >= %.2f" name r.Solver.covered bound)
          (float_of_int r.Solver.covered >= bound -. 1e-9)
      end)
    (fixtures ())

(* --- exact + portfolio --- *)

let test_lemma_a5_per_class () =
  (* Lemma A.5: within any degree class (degrees within factor c), a subset
     uniquely covering ≥ |class|/(2(1+c)) exists — and Procedure Partition
     restricted to the class finds one. *)
  let c = Bounds.c_star in
  List.iter
    (fun (name, t) ->
      Array.iter
        (fun (i, members) ->
          let r = Buckets.solve_class t members in
          let bound = float_of_int (Array.length members) /. (2.0 *. (1.0 +. c)) in
          check_true
            (Printf.sprintf "%s class %d: %d >= %.2f" name i r.Solver.covered bound)
            (float_of_int r.Solver.covered >= bound -. 1e-9))
        (Buckets.classes ~c t))
    (fixtures ())

let test_exact_is_optimal () =
  let r = rng ~salt:72 () in
  List.iter
    (fun (name, t) ->
      if Bipartite.s_count t <= 16 then begin
        let opt = Exact.optimum t in
        List.iter
          (fun (sname, res) ->
            check_true
              (Printf.sprintf "%s: exact %d >= %s %d" name opt sname res.Solver.covered)
              (opt >= res.Solver.covered))
          (Portfolio.solve_each ~reps:16 r t)
      end)
    (fixtures ())

let test_exact_work_limit () =
  let t = Gen.random_bipartite_sdeg (rng ~salt:73 ()) ~s:28 ~n:10 ~d:2 in
  match Exact.solve ~work_limit:1024 t with
  | _ -> Alcotest.fail "expected Too_large"
  | exception Exact.Too_large _ -> ()

let test_portfolio_is_max_of_parts () =
  let r0 = rng ~salt:74 () in
  let t = Gen.random_bipartite_sdeg r0 ~s:12 ~n:20 ~d:3 in
  (* Use two identically-seeded rngs so portfolio and solve_each see the
     same random draws. *)
  let best = Portfolio.solve ~reps:8 (rng ~salt:75 ()) t in
  let parts = Portfolio.solve_each ~reps:8 (rng ~salt:75 ()) t in
  let max_part =
    List.fold_left (fun acc (_, r) -> max acc r.Solver.covered) 0 parts
  in
  check_int "portfolio = max" max_part best.Solver.covered

let partition_matches_reference ?restrict_n t =
  let st = Partition.run ?restrict_n t in
  let s_uni, s_tmp, n_uni, n_many, n_tmp, steps = Reference_kernels.partition_run ?restrict_n t in
  Bitset.equal st.Partition.s_uni s_uni
  && Bitset.equal st.Partition.s_tmp s_tmp
  && Bitset.equal st.Partition.n_uni n_uni
  && Bitset.equal st.Partition.n_many n_many
  && Bitset.equal st.Partition.n_tmp n_tmp
  && st.Partition.steps = steps

let qcheck_tests =
  let arb = arbitrary_bipartite ~smax:12 ~nmax:16 in
  let raw = arbitrary_bipartite_edges ~smax:14 ~nmax:18 in
  let of_raw (s, n, es) = Bipartite.of_edge_array ~s ~n (ends_of es) in
  [
    qcheck ~count:1000 "naive = reference (isolated, repeated edges)"
      (fun e ->
        let t = of_raw e in
        let tr = Naive.run t in
        let s_uni, n_uni, steps = Reference_kernels.naive_run t in
        Bitset.equal tr.Naive.s_uni s_uni && Bitset.equal tr.Naive.n_uni n_uni
        && tr.Naive.steps = steps)
      raw;
    qcheck ~count:1000 "partition = reference, with and without restrict_n"
      (fun ((_, n, es) as e) ->
        let t = of_raw e in
        let r = Wx_util.Rng.create (List.length es) in
        let restrict_n = Bitset.random_subset r (Bitset.full n) 0.6 in
        partition_matches_reference t && partition_matches_reference ~restrict_n t)
      raw;
    qcheck ~count:1000 "greedy and greedy-local = reference"
      (fun e ->
        let t = of_raw e in
        Bitset.equal (Greedy.solve t).Solver.chosen (Reference_kernels.Greedy.solve t)
        && Bitset.equal (Greedy.solve_with_removal t).Solver.chosen
             (Reference_kernels.Greedy.solve_with_removal t))
      raw;
    qcheck ~count:40 "naive guarantee γ/∆ (random)"
      (fun t ->
        if Bipartite.has_isolated t then true
        else begin
          let tr = Naive.run t in
          float_of_int (Bitset.cardinal tr.Naive.n_uni)
          >= (gamma t /. float_of_int (max 1 (Bipartite.max_deg_s t))) -. 1e-9
        end)
      arb;
    qcheck ~count:40 "partition conditions (random)"
      (fun t ->
        let st = Partition.run t in
        List.for_all snd (Partition.check_conditions t st))
      arb;
    qcheck ~count:40 "recursive beats plain partition"
      (fun t ->
        if Bipartite.has_isolated t then true
        else
          (Partition.solve_recursive t).Solver.covered
          >= (Partition.solve t).Solver.covered)
      arb;
    qcheck ~count:25 "exact >= portfolio (random)"
      (fun t ->
        if Bipartite.s_count t > 12 || Bipartite.has_isolated t then true
        else begin
          let opt = Exact.optimum t in
          let best = Portfolio.solve ~reps:8 (Wx_util.Rng.create 1) t in
          opt >= best.Solver.covered
        end)
      arb;
  ]

let suite =
  [
    Alcotest.test_case "all solvers valid" `Quick test_all_solvers_valid;
    Alcotest.test_case "decay buckets" `Quick test_decay_buckets_partition;
    Alcotest.test_case "decay bucket of degree" `Quick test_decay_bucket_of_degree;
    Alcotest.test_case "decay largest bucket" `Quick test_decay_largest_bucket_majority;
    Alcotest.test_case "decay achieves bound" `Quick test_decay_achieves_bound_on_fixtures;
    Alcotest.test_case "greedy subcover" `Quick test_greedy_subcover;
    Alcotest.test_case "decay reduced" `Quick test_decay_reduced_runs;
    Alcotest.test_case "naive guarantee" `Quick test_naive_guarantee;
    Alcotest.test_case "naive uniqueness" `Quick test_naive_nuni_unique_in_suni;
    Alcotest.test_case "naive tolerates isolated" `Quick test_naive_tolerates_isolated;
    Alcotest.test_case "partition conditions" `Quick test_partition_conditions;
    Alcotest.test_case "partition terminal gains" `Quick test_partition_terminal_gains_nonpositive;
    Alcotest.test_case "partition sides" `Quick test_partition_sides_partitioned;
    Alcotest.test_case "partition capped A.3" `Quick test_partition_capped_guarantee;
    Alcotest.test_case "partition recursive A.13" `Quick test_partition_recursive_guarantee;
    Alcotest.test_case "buckets classes cover" `Quick test_buckets_classes_cover_n;
    Alcotest.test_case "buckets ranges" `Quick test_buckets_class_degree_ranges;
    Alcotest.test_case "buckets guarantee A.6" `Quick test_buckets_solver_guarantee;
    Alcotest.test_case "lemma A.5 per class" `Quick test_lemma_a5_per_class;
    Alcotest.test_case "exact optimal" `Quick test_exact_is_optimal;
    Alcotest.test_case "exact work limit" `Quick test_exact_work_limit;
    Alcotest.test_case "portfolio max" `Quick test_portfolio_is_max_of_parts;
  ]
  @ qcheck_tests
