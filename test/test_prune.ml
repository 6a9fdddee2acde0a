(* Branch-and-bound pruning: the optimisation must be invisible in the
   results. Every test here compares the pruned enumeration (the default)
   against the unpruned reference path ([~prune:false]) — values AND
   lex-smallest witnesses, sequentially and with a shared incumbent across
   4 worker domains. *)

module Bitset = Wx_util.Bitset
module Graph = Wx_graph.Graph
module Rng = Wx_util.Rng
module Measure = Wx_expansion.Measure
module Families = Wx_constructions.Families
module Metrics = Wx_obs.Metrics
open Common

let check_witnessed msg (expected : Measure.witnessed) (actual : Measure.witnessed) =
  Alcotest.(check (float 0.0)) (msg ^ " value") expected.Measure.value actual.Measure.value;
  Alcotest.(check bitset_testable) (msg ^ " witness") expected.Measure.witness
    actual.Measure.witness

(* ---- equivalence over the family catalog ---- *)

let families_instances size_hint =
  List.map (fun f -> (f.Families.name, f.Families.make (Rng.create 7) size_hint)) Families.all

let test_families_equivalence_beta () =
  List.iter
    (fun (name, g) ->
      if Graph.n g > 0 then begin
        let reference = Measure.beta_exact ~prune:false ~jobs:1 g in
        List.iter
          (fun jobs ->
            check_witnessed
              (Printf.sprintf "beta %s jobs=%d" name jobs)
              reference
              (Measure.beta_exact ~prune:true ~jobs g))
          [ 1; 4 ];
        let reference_u = Measure.beta_u_exact ~prune:false ~jobs:1 g in
        List.iter
          (fun jobs ->
            check_witnessed
              (Printf.sprintf "beta_u %s jobs=%d" name jobs)
              reference_u
              (Measure.beta_u_exact ~prune:true ~jobs g))
          [ 1; 4 ]
      end)
    (families_instances 12)

let test_families_equivalence_beta_w () =
  List.iter
    (fun (name, g) ->
      if Graph.n g > 0 && Graph.n g <= 12 then begin
        let reference = Measure.beta_w_exact ~prune:false ~jobs:1 g in
        List.iter
          (fun jobs ->
            check_witnessed
              (Printf.sprintf "beta_w %s jobs=%d" name jobs)
              reference
              (Measure.beta_w_exact ~prune:true ~jobs g))
          [ 1; 4 ]
      end)
    (families_instances 10)

(* The optimisation must actually fire: across the catalog, at least one
   instance records cut subtrees (ISSUE acceptance criterion). *)
let test_pruning_fires () =
  Metrics.enable ();
  Fun.protect ~finally:Metrics.disable (fun () ->
      Metrics.reset ();
      List.iter
        (fun (_, g) ->
          if Graph.n g > 0 then ignore (Measure.beta_exact ~prune:true ~jobs:1 g))
        (families_instances 12);
      let pruned = Metrics.counter_value (Metrics.counter "expansion.subtrees_pruned") in
      check_true "subtrees pruned on at least one family instance" (pruned > 0))

(* ---- shared-incumbent tie safety ----

   Ties may be cut only where the lex tiebreak has already decided them:
   against an equal incumbent from a lower-ranked work unit, or against
   the unit's own earlier best. An equal-value subtree that could still
   hold a lex-smaller witness must survive. Vertex-transitive graphs
   (cycles, hypercubes, cliques) maximise ties: every rotation of the
   minimiser ties, and the canonical witness lives in the first shard
   while later shards keep publishing equal incumbents around it. *)

let test_tied_minimisers_keep_lex_witness () =
  let measures =
    [
      ("beta", fun ~prune ~jobs g -> Measure.beta_exact ~prune ~jobs g);
      ("beta_u", fun ~prune ~jobs g -> Measure.beta_u_exact ~prune ~jobs g);
      ("beta_w", fun ~prune ~jobs g -> Measure.beta_w_exact ~prune ~jobs g);
    ]
  in
  List.iter
    (fun g ->
      List.iter
        (fun (name, exact) ->
          let reference = exact ~prune:false ~jobs:1 g in
          List.iter
            (fun jobs ->
              check_witnessed
                (Printf.sprintf "tied %s witness n=%d jobs=%d" name (Graph.n g) jobs)
                reference (exact ~prune:true ~jobs g))
            [ 1; 2; 4; 8 ])
        measures)
    [ Wx_graph.Gen.cycle 12; Wx_graph.Gen.hypercube 3; Wx_graph.Gen.complete 6 ]

(* The tie cut must fire. Once a unit has scored βu = 0 no strictly
   better set exists, so a cut that needs [bound > incumbent] can never
   fire again; the tie-aware cut skips every later subtree, since all of
   them lose the tiebreak. Sequential, so the count is deterministic. *)
let test_tie_cut_fires () =
  let g = Wx_graph.Gen.gnp (Rng.create 1) 20 0.25 in
  let sets_scored prune =
    Metrics.enable ();
    Fun.protect ~finally:Metrics.disable (fun () ->
        Metrics.reset ();
        let w = Measure.beta_u_exact ~prune ~jobs:1 g in
        (w, Metrics.counter_value (Metrics.counter "expansion.sets_scored")))
  in
  let reference, full = sets_scored false in
  let pruned, scored = sets_scored true in
  Alcotest.(check (float 0.0)) "beta_u is 0 on the pinned instance" 0.0 reference.Measure.value;
  check_witnessed "tie cut keeps the lex witness" reference pruned;
  check_true
    (Printf.sprintf "pruned scored %d of %d sets (<= 5%%)" scored full)
    (scored * 20 <= full)

(* qcheck: on random graphs the pruned run with a cross-domain incumbent
   reports exactly the reference value and lex-smallest witness, for all
   three measures. *)
let prop_pruned_equals_unpruned g =
  let check exact =
    let reference = exact ~prune:false ~jobs:1 in
    let pruned = exact ~prune:true ~jobs:4 in
    reference.Measure.value = pruned.Measure.value
    && Bitset.equal reference.Measure.witness pruned.Measure.witness
  in
  check (fun ~prune ~jobs -> Measure.beta_exact ~prune ~jobs g)
  && check (fun ~prune ~jobs -> Measure.beta_u_exact ~prune ~jobs g)
  && check (fun ~prune ~jobs -> Measure.beta_w_exact ~prune ~jobs g)

(* qcheck: the pruned exact measures agree with the independent
   brute-force oracle ([Brute_oracle]) in value and lex-smallest witness
   at jobs 1 and 4, and the oracle's own values satisfy Obs 2.1,
   β >= βw >= βu. *)
let prop_pruned_equals_oracle g =
  let n = Graph.n g in
  let agrees measure exact =
    match Brute_oracle.min_exact measure g with
    | None -> false
    | Some (v, w) ->
        List.for_all
          (fun jobs ->
            let r = exact ~jobs in
            r.Measure.value = v && Bitset.equal r.Measure.witness (Bitset.of_list n w))
          [ 1; 4 ]
  in
  let value m = match Brute_oracle.min_exact m g with Some (v, _) -> v | None -> nan in
  agrees Brute_oracle.Beta (fun ~jobs -> Measure.beta_exact ~prune:true ~jobs g)
  && agrees Brute_oracle.Beta_u (fun ~jobs -> Measure.beta_u_exact ~prune:true ~jobs g)
  && agrees Brute_oracle.Beta_w (fun ~jobs -> Measure.beta_w_exact ~prune:true ~jobs g)
  && value Beta >= value Beta_w
  && value Beta_w >= value Beta_u

(* ---- sampled size clamp (bugfix regression) ----

   [min_over_sampled_sets] accepts a caller-supplied kmax that may exceed
   n; draws above n used to crash the sampler inside Rng. They are now
   clamped (after the draw, so the stream stays aligned) and counted. *)

let test_sampled_kmax_clamped () =
  Metrics.enable ();
  Fun.protect ~finally:Metrics.disable (fun () ->
      Metrics.reset ();
      let g = Wx_graph.Gen.cycle 6 in
      let w =
        Measure.min_over_sampled_sets ~jobs:1 g 40 (Rng.create 11) 64
          (Wx_expansion.Nbhd.expansion_of_set g)
      in
      check_true "sampled value finite" (Float.is_finite w.Measure.value);
      check_true "witness within universe" (Bitset.universe_size w.Measure.witness = 6);
      let clamped = Metrics.counter_value (Metrics.counter "expansion.sampled_clamped") in
      (* With kmax = 40 over n = 6, the overwhelming majority of draws
         exceed n; all must be clamped and counted. *)
      check_true "clamped draws counted" (clamped > 0))

(* Determinism of the sampled path is untouched by the clamp: same seed,
   same kmax, same certificate at any job count. *)
let test_sampled_clamp_deterministic () =
  let g = Wx_graph.Gen.cycle 6 in
  let run jobs =
    Measure.min_over_sampled_sets ~jobs g 40 (Rng.create 11) 64
      (Wx_expansion.Nbhd.expansion_of_set g)
  in
  let r1 = run 1 in
  check_witnessed "sampled clamp jobs=4" r1 (run 4)

let suite =
  [
    Alcotest.test_case "families: pruned beta/beta_u = reference" `Quick
      test_families_equivalence_beta;
    Alcotest.test_case "families: pruned beta_w = reference" `Quick
      test_families_equivalence_beta_w;
    Alcotest.test_case "pruning fires on the catalog" `Quick test_pruning_fires;
    Alcotest.test_case "tied minimisers keep lex witness" `Quick
      test_tied_minimisers_keep_lex_witness;
    Alcotest.test_case "tie cut fires once beta_u reaches 0" `Quick test_tie_cut_fires;
    qcheck ~count:30 "pruned = unpruned on random graphs (all measures)"
      prop_pruned_equals_unpruned
      (arbitrary_graph ~lo:4 ~hi:11);
    qcheck ~count:40 "pruned = brute-force oracle, Obs 2.1 holds" prop_pruned_equals_oracle
      (arbitrary_graph ~lo:2 ~hi:12);
    Alcotest.test_case "sampled kmax > n clamped and counted" `Quick test_sampled_kmax_clamped;
    Alcotest.test_case "sampled clamp deterministic across jobs" `Quick
      test_sampled_clamp_deterministic;
  ]
