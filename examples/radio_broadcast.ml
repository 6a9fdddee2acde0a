(* Radio broadcast on collision-prone networks.

   Demonstrates:
   - flooding stalling forever on C+ (the paper's opening example);
   - the Decay protocol and the wireless-expander-guided spokesmen
     broadcast completing, on both a benign expander and the Section 5
     lower-bound chain;
   - the measured broadcast time on the chain sitting above the paper's
     Ω(D·log(n/D)) lower bound.

   Run with:  dune exec examples/radio_broadcast.exe *)

open Wireless_expanders.Api

let run_and_report name g source protocol seed ~max_rounds =
  let o = Radio.Sim_csr.run ~max_rounds g ~source protocol (Util.Rng.create seed) in
  Format.printf "  %-16s %s after %d rounds (informed %d/%d, collisions %d)@." name
    (if o.Radio.Sim.completed then "completed" else "STALLED")
    o.Radio.Sim.rounds o.Radio.Sim.informed_final (Graph.n g) o.Radio.Sim.collisions;
  o

let () =
  print_endline "=== Radio broadcast demos ===\n";

  (* 1. C+ — flooding fails, smarter protocols succeed. *)
  let g = Constructions.Cplus.create 16 in
  let src = Constructions.Cplus.source g in
  Format.printf "C+ (clique of 16 + source):@.";
  let _ = run_and_report "flood" g src Radio.Sim_csr.flood 1 ~max_rounds:200 in
  let _ = run_and_report "decay" g src Radio.Sim_csr.decay 1 ~max_rounds:2000 in
  let _ =
    run_and_report "spokesmen-cast" g src (Radio.Spokesmen_cast.protocol g) 1 ~max_rounds:200
  in
  print_newline ();

  (* 1b. The anatomy of the stall, as a per-round trace. *)
  print_endline "flood on C+ (first 8 rounds, traced):";
  let tr =
    Radio.Trace.run ~max_rounds:8 g ~source:src Radio.Sim_csr.flood (Util.Rng.create 1)
  in
  print_string (Radio.Trace.render tr);
  Printf.printf "stalled rounds (tx > 0, no reception): %d\n\n" (Radio.Trace.stalled_rounds tr);

  (* 2. A benign expander. *)
  let g = Gen.random_regular (Util.Rng.create 7) 64 4 in
  Format.printf "Random 4-regular graph on 64 vertices:@.";
  let _ = run_and_report "decay" g 0 Radio.Sim_csr.decay 2 ~max_rounds:5000 in
  let _ =
    run_and_report "spokesmen-cast" g 0 (Radio.Spokesmen_cast.protocol g) 2 ~max_rounds:500
  in
  print_newline ();

  (* 3. The Section 5 lower-bound chain. *)
  let copies = 4 and s = 16 in
  let ch = Constructions.Broadcast_chain.create (Util.Rng.create 11) ~copies ~s in
  let g = ch.Constructions.Broadcast_chain.graph in
  let n = Graph.n g in
  let d = Constructions.Broadcast_chain.diameter_estimate ch in
  Format.printf "Broadcast chain (D/2 = %d copies of core(s=%d), n = %d, diameter ≈ %d):@."
    copies s n d;
  let lb = Constructions.Broadcast_chain.paper_round_lb ch in
  Format.printf "  paper lower bound: %.1f rounds (Cor 5.1: %.2f per hop × %d hops)@." lb
    (Util.Floatx.log2 (2.0 *. float_of_int s) /. 4.0)
    copies;
  let o1 = run_and_report "decay" g 0 Radio.Sim_csr.decay 3 ~max_rounds:20000 in
  let o2 =
    run_and_report "spokesmen-cast" g 0 (Radio.Spokesmen_cast.protocol g) 3 ~max_rounds:5000
  in
  Format.printf "  measured/lower-bound ratio: decay %.2f, spokesmen %.2f@."
    (float_of_int o1.Radio.Sim.rounds /. lb)
    (float_of_int o2.Radio.Sim.rounds /. lb);

  (* 4. Monte-Carlo distribution of broadcast times over seeds. *)
  let seeds = List.init 20 (fun i -> 100 + i) in
  let _, outs = Radio.Sim_csr.monte_carlo g ~source:0 Radio.Sim_csr.decay ~seeds in
  let times =
    Util.Stats.of_ints (Array.of_list (List.map (fun o -> o.Radio.Sim.rounds) outs))
  in
  Format.printf "  decay over %d seeds: %a@." (List.length seeds) Util.Stats.pp_summary
    (Util.Stats.summarize times);
  Format.printf "  (every sample must exceed the Ω(D log(n/D)) bound — min/lb = %.2f)@."
    (Util.Stats.min times /. lb)
