(* Quickstart: build the paper's constructions and measure all three
   expansion notions on them.

   Run with:  dune exec examples/quickstart.exe *)

open Wireless_expanders.Api

let () =
  print_endline "=== Wireless Expanders: quickstart ===\n";

  (* 1. The motivating example C+: a clique plus a source. Ordinary
     expansion is fine, unique-neighbor expansion is zero, wireless
     expansion is fine — the separation that motivates the paper. *)
  let g = Constructions.Cplus.create 8 in
  Format.printf "C+ graph: %a@." Graph.pp g;
  let beta = Expansion.Measure.beta_exact g in
  let beta_u = Expansion.Measure.beta_u_exact g in
  let beta_w = Expansion.Measure.beta_w_exact g in
  Format.printf "  ordinary expansion  β  = %.3f@." beta.Expansion.Measure.value;
  Format.printf "  unique expansion    βu = %.3f (witness %s)@." beta_u.Expansion.Measure.value
    (Util.Bitset.to_string beta_u.Expansion.Measure.witness);
  Format.printf "  wireless expansion  βw = %.3f@." beta_w.Expansion.Measure.value;
  Format.printf "  ⇒ β ≥ βw ≥ βu (Observation 2.1), with βu collapsing but βw surviving.@.@.";

  (* 2. The core graph of Lemma 4.4: ordinary expansion log(2s) but wireless
     expansion only a 2/log(2s) fraction of it. *)
  let s = 64 in
  let cg = Constructions.Core_graph.create s in
  let t = Constructions.Core_graph.bip cg in
  Format.printf "Core graph, s = %d: %a@." s Bipartite.pp t;
  let log2s = Util.Floatx.log2 (2.0 *. float_of_int s) in
  let mins = Constructions.Core_graph.dp_min_coverage cg in
  let worst = ref infinity in
  for k = 1 to s do
    worst := Float.min !worst (float_of_int mins.(k) /. float_of_int k)
  done;
  Format.printf "  one-sided expansion (exact, tree DP): %.3f  (Lemma 4.4 promises ≥ %.3f)@."
    !worst log2s;
  let cap = Constructions.Core_graph.dp_max_unique cg in
  Format.printf "  max unique coverage (exact, tree DP): %d  (Lemma 4.4 caps it at 2s = %d)@."
    cap (2 * s);
  Format.printf "  ⇒ wireless expansion ≤ %.3f = β·(2/log 2s): the negative result's core.@.@."
    (float_of_int cap /. float_of_int s);

  (* 3. Solve a spokesmen election instance on the core graph with the
     paper's decay sampler and compare against the exact optimum. *)
  let small = Constructions.Core_graph.create 8 in
  let inst = Constructions.Core_graph.bip small in
  let rng = Util.Rng.create 42 in
  let decay = Spokesmen.Decay.solve ~reps:64 rng inst in
  let exact = Spokesmen.Exact.solve inst in
  Format.printf "Spokesmen election on core(s=8): decay sampler %d vs optimum %d (of |N| = %d)@."
    decay.Spokesmen.Solver.covered exact.Spokesmen.Solver.covered (Bipartite.n_count inst);
  Format.printf "  chosen spokesmen: %s@."
    (Util.Bitset.to_string decay.Spokesmen.Solver.chosen);

  print_endline "\nDone. See examples/radio_broadcast.exe and `wx bench record` for more."
