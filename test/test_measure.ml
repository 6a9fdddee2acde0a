module Measure = Wx_expansion.Measure
module Bip_measure = Wx_expansion.Bip_measure
module Nbhd = Wx_expansion.Nbhd
module Graph = Wx_graph.Graph
module Gen = Wx_graph.Gen
module Bipartite = Wx_graph.Bipartite
module Bitset = Wx_util.Bitset
open Common

let test_max_set_size () =
  check_int "half of 10" 5 (Measure.max_set_size (Gen.cycle 10));
  check_int "alpha 0.3" 3 (Measure.max_set_size ~alpha:0.3 (Gen.cycle 10))

let test_beta_exact_cycle () =
  (* Cycle 10, α = 1/2: the worst set is an arc of 5 with 2 外 neighbors. *)
  let w = Measure.beta_exact (Gen.cycle 10) in
  check_float "beta" (2.0 /. 5.0) w.Measure.value;
  check_int "witness size" 5 (Bitset.cardinal w.Measure.witness);
  check_float "witness consistent" w.Measure.value
    (Nbhd.expansion_of_set (Gen.cycle 10) w.Measure.witness)

let test_beta_exact_complete () =
  (* K8, α = 1/2: any set of size k ≤ 4 has 8−k external neighbors; min at
     k = 4: 4/4 = 1. *)
  let w = Measure.beta_exact (Gen.complete 8) in
  check_float "beta" 1.0 w.Measure.value

let test_beta_exact_star () =
  (* Star n=9 (center 0): worst set = 4 leaves → only the center outside: 1/4. *)
  let w = Measure.beta_exact (Gen.star 9) in
  check_float "beta" 0.25 w.Measure.value

let test_beta_u_exact_cycle () =
  (* Even cycle: the alternating independent set {0,2,4,6,8} double-covers
     every outside vertex, so βu = 0 — while the wireless expansion stays
     positive (pick every fourth vertex). A textbook β/βu separation. *)
  let bu = Measure.beta_u_exact (Gen.cycle 10) in
  check_float "βu = 0 on even cycle" 0.0 bu.Measure.value;
  let bw = Measure.beta_w_exact (Gen.cycle 10) in
  check_true "βw > 0 on even cycle" (bw.Measure.value > 0.0)

let test_beta_u_complete_graph_is_low () =
  (* K8: a set of 2 has zero unique neighbors? Each outside vertex is
     adjacent to both → Γ¹ = ∅. *)
  let bu = Measure.beta_u_exact (Gen.complete 8) in
  check_float "βu = 0" 0.0 bu.Measure.value

let test_beta_w_vs_others_cplus () =
  (* The motivating separation: on C⁺, βu is 0 (witness {x, y, s0}) but βw
     stays positive. *)
  let g = Wx_constructions.Cplus.create 7 in
  let bu = Measure.beta_u_exact g in
  let bw = Measure.beta_w_exact g in
  check_float "βu = 0" 0.0 bu.Measure.value;
  check_true "βw > 0" (bw.Measure.value > 0.0)

let test_wireless_of_set_exact () =
  (* C+ bad set {x, y, s0}: transmitting {x} alone uniquely covers the whole
     remaining clique (c − 2 vertices) minus... x is adjacent to all clique
     vertices and s0. S = {0, 1, s0}; S' = {0} covers clique \ {0,1}
     uniquely (each has exactly one neighbor in S'). *)
  let g = Wx_constructions.Cplus.create 8 in
  let s = Wx_constructions.Cplus.bad_set g in
  let w = Measure.wireless_of_set_exact g s in
  check_float "singleton wins" (6.0 /. 3.0) w.Measure.value

let test_beta_w_exact_ordering () =
  List.iter
    (fun (name, g) ->
      let b = (Measure.beta_exact g).Measure.value in
      let bw = (Measure.beta_w_exact g).Measure.value in
      let bu = (Measure.beta_u_exact g).Measure.value in
      check_true (name ^ ": β >= βw") (b >= bw -. 1e-9);
      check_true (name ^ ": βw >= βu") (bw >= bu -. 1e-9))
    [
      ("cycle-8", Gen.cycle 8);
      ("path-8", Gen.path 8);
      ("grid-3x3", Gen.grid 3 3);
      ("complete-7", Gen.complete 7);
      ("star-8", Gen.star 8);
      ("hypercube-3", Gen.hypercube 3);
    ]

let test_sampled_upper_bounds_exact () =
  let r = rng ~salt:50 () in
  List.iter
    (fun g ->
      let exact = (Measure.beta_exact g).Measure.value in
      let sampled = (Measure.beta_sampled r ~samples:200 g).Measure.value in
      check_true "sampled >= exact" (sampled >= exact -. 1e-9))
    [ Gen.cycle 10; Gen.grid 3 4; Gen.hypercube 3 ]

let test_beta_w_sampled_upper_bounds_exact () =
  let r = rng ~salt:51 () in
  let g = Gen.cycle 9 in
  let exact = (Measure.beta_w_exact g).Measure.value in
  let sampled = (Measure.beta_w_sampled r ~samples:300 g).Measure.value in
  check_true "sampled >= exact" (sampled >= exact -. 1e-9)

let test_work_limit () =
  match Measure.beta_exact ~work_limit:100 (Gen.cycle 12) with
  | _ -> Alcotest.fail "expected Too_large"
  | exception Measure.Too_large _ -> ()

(* Regressions for the work-guard overflow bugs: each of these used to
   either escape as a bare [Combi.Overflow] or, with [1 lsl k] overflowing
   at k >= 62, start an enumeration that would never finish. All must
   reject promptly with the documented exception. *)
let test_work_guard_overflow_is_too_large () =
  let expect_too_large name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Too_large" name
    | exception Measure.Too_large _ -> ()
    | exception e -> Alcotest.failf "%s: expected Too_large, got %s" name (Printexc.to_string e)
  in
  (* Candidate-set count overflows the native int inside subsets_count_le. *)
  expect_too_large "beta_exact n=200" (fun () -> Measure.beta_exact (Gen.cycle 200));
  expect_too_large "profile_beta n=200" (fun () -> Measure.profile_beta (Gen.cycle 200));
  (* Wireless work estimator: binomial overflow folds into infinite work. *)
  expect_too_large "beta_w_exact n=200" (fun () -> Measure.beta_w_exact (Gen.cycle 200));
  expect_too_large "profile_beta_w n=200" (fun () -> Measure.profile_beta_w (Gen.cycle 200));
  (* kmax >= 62: the per-size factor 2^k no longer fits an int; the ldexp
     estimator must still reject instead of silently passing the guard. *)
  expect_too_large "beta_w_exact kmax=63" (fun () ->
      Measure.beta_w_exact ~alpha:1.0 (Gen.cycle 63));
  expect_too_large "profile_beta_w kmax=63" (fun () ->
      Measure.profile_beta_w ~alpha:1.0 (Gen.cycle 63))

(* The Gray-code guard derives its admission test and its reported bound
   from one number, min(work_limit, 2^(int_size - 2)): a tiny limit rejects
   with that limit in the message, and a huge |S| is rejected even at
   [work_limit = max_int] — where the old code's separate [1 lsl k] test
   wrapped around — with the native-int ceiling called out. *)
let test_gray_guard_single_bound () =
  let contains msg sub =
    let n = String.length msg and m = String.length sub in
    let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
    go 0
  in
  let g = Gen.cycle 126 in
  let big = Bitset.of_array 126 (Array.init 63 Fun.id) in
  (match Measure.wireless_of_set_exact ~work_limit:max_int g big with
  | _ -> Alcotest.fail "expected Too_large for |S| = 63 at work_limit = max_int"
  | exception Measure.Too_large msg ->
      check_true "ceiling named in message" (contains msg "native-int ceiling"));
  let small = Bitset.of_array 126 (Array.init 20 Fun.id) in
  (match Measure.wireless_of_set_exact ~work_limit:1024 g small with
  | _ -> Alcotest.fail "expected Too_large for 2^20 steps at limit 1024"
  | exception Measure.Too_large msg -> check_true "limit in message" (contains msg "1024"));
  (* 2^10 steps fit the 1024-step limit exactly: admitted. *)
  let s10 = Bitset.of_array 126 (Array.init 10 Fun.id) in
  let w = Measure.wireless_of_set_exact ~work_limit:1024 g s10 in
  check_true "at-limit set scored" (w.Measure.value > 0.0)

let test_profile_beta () =
  let profile = Measure.profile_beta (Gen.cycle 10) in
  check_int "5 sizes" 5 (List.length profile);
  (* Size-k arcs are worst: expansion 2/k, decreasing in k. *)
  List.iter (fun (k, v) -> check_float "arc" (2.0 /. float_of_int k) v) profile

(* --- bipartite measures --- *)

let test_bip_exact_max_unique_gbad () =
  let gb = Wx_constructions.Gbad.create ~s:6 ~delta:4 ~beta:3 in
  let t = Wx_constructions.Gbad.bip gb in
  let m, witness = Bip_measure.exact_max_unique t in
  check_int "witness consistent" m (Nbhd.Bip.unique_count t witness);
  (* Wireless lb from the remark: max{2β−∆, ∆/2} per S-vertex = max{2,2} = 2;
     6 vertices → at least 12. *)
  check_true "above remark lb" (m >= 12)

let test_bip_ordinary_expansion_exact () =
  (* Complete bipartite 3×4 as instance: every nonempty S' covers all 4. *)
  let t =
    Bipartite.of_edge_array ~s:3 ~n:4
      (ends_of (List.concat_map (fun u -> List.init 4 (fun w -> (u, w))) [ 0; 1; 2 ]))
  in
  let v, witness = Bip_measure.ordinary_expansion_min_exact t in
  check_float "4/3" (4.0 /. 3.0) v;
  check_int "witness is full side" 3 (Bitset.cardinal witness)

let test_bip_sampled_vs_exact () =
  let r = rng ~salt:52 () in
  let t = Gen.random_bipartite_sdeg r ~s:10 ~n:15 ~d:3 in
  let exact, _ = Bip_measure.ordinary_expansion_min_exact t in
  let sampled, _ = Bip_measure.ordinary_expansion_min_sampled r ~samples:500 t in
  check_true "sampled >= exact" (sampled >= exact -. 1e-9)

let test_bip_sampled_max_lower_bounds_exact () =
  let r = rng ~salt:53 () in
  let t = Gen.random_bipartite_sdeg r ~s:10 ~n:15 ~d:3 in
  let exact, _ = Bip_measure.exact_max_unique t in
  let sampled, _ = Bip_measure.sampled_max_unique r ~samples:500 t in
  check_true "sampled <= exact" (sampled <= exact)

let qcheck_tests =
  [
    qcheck ~count:150 "bipartite ordinary min exact = reference"
      (fun (s, n, es) ->
        let t = Bipartite.of_edge_array ~s ~n (ends_of es) in
        let v, w = Bip_measure.ordinary_expansion_min_exact t in
        let v', w' = Reference_kernels.ordinary_expansion_min t in
        Float.equal v v' && Bitset.equal w w')
      (arbitrary_bipartite_edges ~smax:12 ~nmax:16);
    (* The one Gray walker against the former witness-tracking kernels and
       the brute-force submask maximum. *)
    qcheck ~count:150 "wireless of set exact = reference kernel and oracle"
      (fun (g, seed) ->
        let n = Graph.n g in
        let r = Wx_util.Rng.create seed in
        let s = Bitset.random_of_universe r n (1 + Wx_util.Rng.int r n) in
        let w = Measure.wireless_of_set_exact g s in
        let m, w' = Reference_kernels.max_unique_over_subsets g s in
        let mask = List.fold_left (fun acc v -> acc lor (1 lsl v)) 0 (Bitset.elements s) in
        let oracle = Brute_oracle.max_unique_submask (Brute_oracle.nbr_masks g) mask in
        w.Measure.value = float_of_int m /. float_of_int (Bitset.cardinal s)
        && Bitset.equal w.Measure.witness w'
        && m = oracle)
      (QCheck.pair (arbitrary_graph ~lo:1 ~hi:14) (QCheck.int_bound 1_000_000));
    qcheck ~count:150 "bipartite max unique exact = reference kernel and oracle"
      (fun (s, n, es) ->
        let t = Bipartite.of_edge_array ~s ~n (ends_of es) in
        let m, w = Bip_measure.exact_max_unique t in
        let m', w' = Reference_kernels.exact_max_unique t in
        (* Side N as the vertices s .. s+n-1 outside the mask of side S. *)
        let nbrs = Array.make (s + n) 0 in
        Bipartite.iter_edges t (fun u x -> nbrs.(s + x) <- nbrs.(s + x) lor (1 lsl u));
        m = m' && Bitset.equal w w'
        && m = Brute_oracle.max_unique_submask nbrs ((1 lsl s) - 1))
      (arbitrary_bipartite_edges ~smax:10 ~nmax:12);
    qcheck ~count:25 "Obs 2.1 on random graphs"
      (fun g ->
        if Graph.n g > 10 || Graph.n g < 2 then true
        else begin
          let b = (Measure.beta_exact g).Measure.value in
          let bw = (Measure.beta_w_exact g).Measure.value in
          let bu = (Measure.beta_u_exact g).Measure.value in
          b >= bw -. 1e-9 && bw >= bu -. 1e-9
        end)
      (arbitrary_graph ~lo:3 ~hi:10);
    qcheck ~count:25 "wireless of set >= unique of set"
      (fun g ->
        let n = Graph.n g in
        if n < 4 then true
        else begin
          let r = Wx_util.Rng.create 3 in
          let s = Bitset.random_of_universe r n (max 1 (n / 3)) in
          let uniq = Nbhd.unique_expansion_of_set g s in
          let wl = (Measure.wireless_of_set_exact g s).Measure.value in
          wl >= uniq -. 1e-9
        end)
      (arbitrary_graph ~lo:4 ~hi:14);
  ]

let suite =
  [
    Alcotest.test_case "max_set_size" `Quick test_max_set_size;
    Alcotest.test_case "beta exact cycle" `Quick test_beta_exact_cycle;
    Alcotest.test_case "beta exact complete" `Quick test_beta_exact_complete;
    Alcotest.test_case "beta exact star" `Quick test_beta_exact_star;
    Alcotest.test_case "beta_u cycle" `Quick test_beta_u_exact_cycle;
    Alcotest.test_case "beta_u complete low" `Quick test_beta_u_complete_graph_is_low;
    Alcotest.test_case "C+ separation" `Quick test_beta_w_vs_others_cplus;
    Alcotest.test_case "wireless of set exact" `Quick test_wireless_of_set_exact;
    Alcotest.test_case "ordering on zoo" `Quick test_beta_w_exact_ordering;
    Alcotest.test_case "sampled beta bounds exact" `Quick test_sampled_upper_bounds_exact;
    Alcotest.test_case "sampled beta_w bounds exact" `Quick test_beta_w_sampled_upper_bounds_exact;
    Alcotest.test_case "work limit" `Quick test_work_limit;
    Alcotest.test_case "work guard overflow is Too_large" `Quick
      test_work_guard_overflow_is_too_large;
    Alcotest.test_case "gray guard derives one bound" `Quick test_gray_guard_single_bound;
    Alcotest.test_case "profile beta" `Quick test_profile_beta;
    Alcotest.test_case "bip max unique gbad" `Quick test_bip_exact_max_unique_gbad;
    Alcotest.test_case "bip ordinary exact" `Quick test_bip_ordinary_expansion_exact;
    Alcotest.test_case "bip sampled vs exact" `Quick test_bip_sampled_vs_exact;
    Alcotest.test_case "bip sampled max lb" `Quick test_bip_sampled_max_lower_bounds_exact;
  ]
  @ qcheck_tests
