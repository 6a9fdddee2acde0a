module Sim = Wx_radio.Sim
module Sim_csr = Wx_radio.Sim_csr
module Schedule = Wx_radio.Schedule
module Spokesmen_cast = Wx_radio.Spokesmen_cast
module Graph = Wx_graph.Graph
module Gen = Wx_graph.Gen
module Bitset = Wx_util.Bitset
open Common

(* --- reception semantics, driven by replayed transmit sets ---

   [replayed g sets] is a fresh engine from source 0 plus a [step] that
   executes the next round of the hand-written schedule and returns the
   newly-informed count. *)

let replayed ?(source = 0) g sets =
  let n = Graph.n g in
  let sch = { Schedule.source; rounds = Array.of_list (List.map (Bitset.of_list n) sets) } in
  let t = Sim_csr.create ~jobs:1 g ~source in
  let fill = Schedule.replay sch and r = rng () in
  (t, fun () -> Sim_csr.step t fill r)

let test_single_transmitter_informs_neighbors () =
  (* Star: center transmits, all leaves hear it. *)
  let t, step = replayed (Gen.star 5) [ [ 0 ] ] in
  check_int "all leaves" 4 (step ());
  check_true "all informed" (Sim_csr.all_informed t)

let test_collision_blocks_reception () =
  (* Triangle 0-1-2: 0 transmits, 1 and 2 both hear it uniquely; then 0
     and 1 transmit together and 2 hears a collision. *)
  let g = Graph.of_edges 3 [ (0, 2); (1, 2); (0, 1) ] in
  let t, step = replayed g [ [ 0 ]; [ 0; 1 ] ] in
  check_int "both hear" 2 (step ());
  check_true "all informed after 1 round" (Sim_csr.all_informed t);
  let collisions_before = Sim_csr.collisions t in
  ignore (step ());
  check_true "collision counted" (Sim_csr.collisions t > collisions_before)

let test_collision_prevents_new_information () =
  (* 0 adjacent to 2 and 3; 3 adjacent to 1. Round 1: 0 transmits → 2 and
     3 hear. Round 2: 3 transmits → 1 hears. *)
  let g = Graph.of_edges 4 [ (0, 2); (1, 2); (0, 3); (3, 1) ] in
  let t, step = replayed g [ [ 0 ]; [ 3 ] ] in
  ignore (step ());
  ignore (step ());
  check_true "1 informed" (Sim_csr.is_informed t 1);
  check_true "done" (Sim_csr.all_informed t)

let test_exactly_one_rule () =
  (* Gadget: u = 3 adjacent to a = 1 and b = 2; a, b informed. Both
     transmit: u hears nothing. Only one transmits: u hears. *)
  let g = Graph.of_edges 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let t, step = replayed g [ [ 0 ]; [ 1; 2 ]; [ 1 ] ] in
  ignore (step ());
  check_true "a,b informed" (Sim_csr.is_informed t 1 && Sim_csr.is_informed t 2);
  check_true "u not yet" (not (Sim_csr.is_informed t 3));
  check_int "collision: nothing received" 0 (step ());
  check_int "single: received" 1 (step ())

let test_transmitter_hears_nothing () =
  (* Triangle, everyone informed and transmitting: each vertex has two
     transmitting neighbors but is busy transmitting, so no collision is
     counted; a silent vertex in the same spot would count one. *)
  let g = Graph.of_edges 3 [ (0, 1); (1, 2); (0, 2) ] in
  let t, step = replayed g [ [ 0 ]; [ 0; 1; 2 ]; [ 0; 1 ] ] in
  ignore (step ());
  ignore (step ());
  check_int "transmitters count no collision" 0 (Sim_csr.collisions t);
  ignore (step ());
  check_int "the silent vertex does" 1 (Sim_csr.collisions t)

let test_uninformed_cannot_transmit () =
  (* A processor cannot transmit a message it does not hold: a replayed
     schedule naming an uninformed transmitter is rejected. *)
  let _, step = replayed (Gen.path 3) [ [ 2 ] ] in
  Alcotest.check_raises "uninformed transmitter"
    (Invalid_argument "Sim_csr.transmit: transmitter without the message") (fun () ->
      ignore (step ()))

let test_informed_since () =
  let t, step = replayed (Gen.path 4) [ [ 0 ]; [ 1 ] ] in
  check_int "source at 0" 0 (Sim_csr.informed_since t 0);
  check_int "not informed" (-1) (Sim_csr.informed_since t 2);
  ignore (step ());
  check_int "vertex 1 at round 1" 1 (Sim_csr.informed_since t 1);
  ignore (step ());
  check_int "vertex 2 at round 2" 2 (Sim_csr.informed_since t 2)

let test_round_counter () =
  let t, step = replayed (Gen.path 3) [ [] ] in
  check_int "round 0" 0 (Sim_csr.round t);
  ignore (step ());
  check_int "round 1" 1 (Sim_csr.round t)

(* --- protocols --- *)

let run ~max_rounds g ~source p salt =
  Sim_csr.run ~max_rounds g ~source p (rng ~salt ())

let test_flood_stalls_on_cplus () =
  (* The motivating failure: flooding C⁺ informs x and y in round 1, then
     s0, x, y all transmit forever and the rest of the clique never hears. *)
  let g = Wx_constructions.Cplus.create 8 in
  let o = run ~max_rounds:200 g ~source:(Wx_constructions.Cplus.source g) Sim_csr.flood 90 in
  check_true "never completes" (not o.Sim.completed);
  check_int "stuck at 3" 3 o.Sim.informed_final

let test_flood_completes_on_path () =
  (* Path of 3: round 1: 0 → 1. Round 2: 0, 1 transmit → 2 hears only 1. *)
  let o = run ~max_rounds:50 (Gen.path 3) ~source:0 Sim_csr.flood 91 in
  check_true "completes" o.Sim.completed;
  check_int "2 rounds" 2 o.Sim.rounds

let test_flood_stalls_on_longer_path () =
  (* On a path the newest vertex's far neighbor has a single transmitting
     neighbor, so flood completes on paths of any length. *)
  let o = run ~max_rounds:50 (Gen.path 6) ~source:0 Sim_csr.flood 92 in
  check_true "completes on path" o.Sim.completed

let test_decay_completes_on_cplus () =
  let g = Wx_constructions.Cplus.create 8 in
  let o = run ~max_rounds:2000 g ~source:(Wx_constructions.Cplus.source g) Sim_csr.decay 93 in
  check_true "decay completes" o.Sim.completed

let test_decay_completes_on_expander () =
  let g = Gen.random_regular (rng ~salt:94 ()) 40 4 in
  let o = run ~max_rounds:4000 g ~source:0 Sim_csr.decay 95 in
  check_true "completes" o.Sim.completed

let test_decay_phase_length () =
  check_int "n=16" 5 (Sim_csr.phase_length 16);
  check_int "n=17" 6 (Sim_csr.phase_length 17)

let test_spokesmen_cast_completes_on_cplus () =
  let g = Wx_constructions.Cplus.create 8 in
  let o =
    run ~max_rounds:500 g ~source:(Wx_constructions.Cplus.source g) (Spokesmen_cast.protocol g) 96
  in
  check_true "completes" o.Sim.completed;
  (* With singleton transmissions C+ finishes fast: s0 → {x,y}; then one of
     them alone informs the whole clique. *)
  check_true "fast" (o.Sim.rounds <= 6)

let test_spokesmen_cast_completes_on_grid () =
  let g = Gen.grid 5 5 in
  let o = run ~max_rounds:500 g ~source:0 (Spokesmen_cast.protocol g) 97 in
  check_true "completes" o.Sim.completed

let test_spokesmen_cast_beats_decay_on_core_chain () =
  let ch = Wx_constructions.Broadcast_chain.create (rng ~salt:98 ()) ~copies:2 ~s:8 in
  let g = ch.Wx_constructions.Broadcast_chain.graph in
  let sc = run ~max_rounds:5000 g ~source:0 (Spokesmen_cast.protocol g) 99 in
  let dc = run ~max_rounds:5000 g ~source:0 Sim_csr.decay 100 in
  check_true "both complete" (sc.Sim.completed && dc.Sim.completed)

(* --- drivers --- *)

let test_outcome_history_monotone () =
  let o = run ~max_rounds:500 (Gen.grid 4 4) ~source:0 Sim_csr.decay 101 in
  let prev = ref 0 in
  Array.iter
    (fun c ->
      check_true "monotone" (c >= !prev);
      prev := c)
    o.Sim.frontier_history

let test_rounds_to_inform () =
  let g = Gen.path 5 in
  match
    Sim_csr.rounds_to_inform ~max_rounds:500 g ~source:0 ~target:4 Sim_csr.flood
      (rng ~salt:102 ())
  with
  | Some r -> check_int "path needs 4" 4 r
  | None -> Alcotest.fail "did not reach target"

let test_rounds_to_inform_timeout () =
  let g = Wx_constructions.Cplus.create 6 in
  match
    Sim_csr.rounds_to_inform ~max_rounds:50 g
      ~source:(Wx_constructions.Cplus.source g) ~target:4 Sim_csr.flood (rng ~salt:103 ())
  with
  | Some _ -> Alcotest.fail "flood should stall"
  | None -> ()

let test_rounds_to_fraction () =
  let g = Gen.star 11 in
  let leaves = Bitset.of_list 11 (List.init 10 (fun i -> i + 1)) in
  match
    Sim_csr.rounds_to_fraction ~max_rounds:50 g ~source:0 ~subset:leaves ~fraction:1.0
      Sim_csr.flood (rng ~salt:104 ())
  with
  | Some r -> check_int "one round" 1 r
  | None -> Alcotest.fail "unreached"

let test_monte_carlo_deterministic () =
  let g = Gen.grid 4 4 in
  let _, outs1 = Sim_csr.monte_carlo g ~source:0 Sim_csr.decay ~seeds:[ 1; 2; 3 ] in
  let _, outs2 = Sim_csr.monte_carlo g ~source:0 Sim_csr.decay ~seeds:[ 1; 2; 3 ] in
  List.iter2
    (fun a b -> check_int "same rounds per seed" a.Sim.rounds b.Sim.rounds)
    outs1 outs2

let suite =
  [
    Alcotest.test_case "single transmitter" `Quick test_single_transmitter_informs_neighbors;
    Alcotest.test_case "collision blocks" `Quick test_collision_blocks_reception;
    Alcotest.test_case "collision no info" `Quick test_collision_prevents_new_information;
    Alcotest.test_case "exactly-one rule" `Quick test_exactly_one_rule;
    Alcotest.test_case "transmitter hears nothing" `Quick test_transmitter_hears_nothing;
    Alcotest.test_case "uninformed cannot transmit" `Quick test_uninformed_cannot_transmit;
    Alcotest.test_case "informed_since" `Quick test_informed_since;
    Alcotest.test_case "round counter" `Quick test_round_counter;
    Alcotest.test_case "flood stalls on C+" `Quick test_flood_stalls_on_cplus;
    Alcotest.test_case "flood completes on path-3" `Quick test_flood_completes_on_path;
    Alcotest.test_case "flood on longer path" `Quick test_flood_stalls_on_longer_path;
    Alcotest.test_case "decay completes on C+" `Quick test_decay_completes_on_cplus;
    Alcotest.test_case "decay on expander" `Quick test_decay_completes_on_expander;
    Alcotest.test_case "decay phase length" `Quick test_decay_phase_length;
    Alcotest.test_case "spokesmen-cast on C+" `Quick test_spokesmen_cast_completes_on_cplus;
    Alcotest.test_case "spokesmen-cast on grid" `Quick test_spokesmen_cast_completes_on_grid;
    Alcotest.test_case "protocols on chain" `Slow test_spokesmen_cast_beats_decay_on_core_chain;
    Alcotest.test_case "history monotone" `Quick test_outcome_history_monotone;
    Alcotest.test_case "rounds_to_inform" `Quick test_rounds_to_inform;
    Alcotest.test_case "rounds_to_inform timeout" `Quick test_rounds_to_inform_timeout;
    Alcotest.test_case "rounds_to_fraction" `Quick test_rounds_to_fraction;
    Alcotest.test_case "monte carlo deterministic" `Quick test_monte_carlo_deterministic;
  ]
