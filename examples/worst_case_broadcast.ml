(* The negative result, felt operationally: plant a generalized core graph
   on a host expander (Corollary 4.11) and watch broadcast from inside S*
   slow down relative to broadcast on the clean host, even though the
   composed graph's ordinary expansion is essentially unchanged.

   Run with:  dune exec examples/worst_case_broadcast.exe *)

open Wireless_expanders.Api

let broadcast_stats name g source seeds =
  let _, outs =
    Radio.Sim_csr.monte_carlo ~max_rounds:50_000 g ~source Radio.Sim_csr.decay
      ~seeds
  in
  let times =
    List.filter_map
      (fun o -> if o.Radio.Sim.completed then Some o.Radio.Sim.rounds else None)
      outs
  in
  let arr = Util.Stats.of_ints (Array.of_list times) in
  Format.printf "  %-28s completed %d/%d, rounds: %a@." name (List.length times)
    (List.length seeds) Util.Stats.pp_summary (Util.Stats.summarize arr)

let () =
  print_endline "=== Worst-case expanders slow broadcast down ===\n";
  let rng = Util.Rng.create 20180218 in
  let host = Gen.random_regular rng 96 24 in
  let wc = Constructions.Worst_case.create rng ~eps:0.4 ~host ~host_beta:0.5 in
  let g = wc.Constructions.Worst_case.graph in
  Format.printf "host: %a@." Graph.pp host;
  Format.printf "composed G̃: %a  (S* size %d)@." Graph.pp g
    (Util.Bitset.cardinal wc.Constructions.Worst_case.s_star);
  Format.printf "predicted β̃ = %.3f; exact wireless expansion at S* = %.3f@.@."
    (Constructions.Worst_case.predicted_beta_tilde wc)
    (Constructions.Worst_case.s_star_wireless_exact wc);

  let seeds = List.init 15 (fun i -> 500 + i) in
  print_endline "decay broadcast from a host vertex:";
  broadcast_stats "host alone" host 0 seeds;
  broadcast_stats "composed G̃" g 0 seeds;

  print_endline "\ndecay broadcast from inside the planted S*:";
  let s_star_vertex = Util.Bitset.choose wc.Constructions.Worst_case.s_star in
  broadcast_stats "G̃ from S*" g s_star_vertex seeds;

  (* The collapse is a per-round phenomenon: if the whole of S* holds the
     message, how many neighbors can hear it in ONE round, compared with how
     many neighbors S* has? Both sides exactly. *)
  let s_star = wc.Constructions.Worst_case.s_star in
  let reachable =
    Util.Bitset.cardinal (Expansion.Nbhd.gamma_minus g s_star)
  in
  let one_round =
    (* max over S′ ⊆ S* of uniquely-covered neighbors — the tree DP. *)
    Constructions.Gen_core.max_unique_exact wc.Constructions.Worst_case.core
  in
  Format.printf
    "@.per-round view with frontier = S*: |Γ⁻(S*)| = %d neighbors, but at most %d@.\
     can be informed in any single round (exact) — a %.0f%%-per-round tax that the@.\
     end-to-end decay times above absorb at this small plant size (|S*| = %d), and@.\
     that grows as Θ(ε³·log) with the construction's parameters.@."
    reachable one_round
    (100.0 *. (1.0 -. (float_of_int one_round /. float_of_int reachable)))
    (Util.Bitset.cardinal s_star);

  (* Bonus: the bipartite variant of the remark stays bipartite. *)
  let host2 = Gen.complete_bipartite 48 48 in
  let _, l, r =
    Constructions.Worst_case.create_bipartite (Util.Rng.create 7) ~eps:0.4 ~host:host2
      ~host_beta:0.5
  in
  Format.printf "@.bipartite variant: sides %d / %d, still bipartite — the remark's balance trick.@."
    (Util.Bitset.cardinal l) (Util.Bitset.cardinal r)
