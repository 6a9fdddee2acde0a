module Trace = Wx_radio.Trace
module Gen = Wx_graph.Gen
module Sim_csr = Wx_radio.Sim_csr
open Common

let test_trace_records_rounds () =
  let g = Gen.path 5 in
  let t = Trace.run g ~source:0 Sim_csr.flood (rng ~salt:190 ()) in
  check_true "completed" t.Trace.completed;
  check_int "4 rounds on the path" 4 (List.length t.Trace.rounds);
  (* Informed totals monotone, final = n. *)
  let prev = ref 1 in
  List.iter
    (fun r ->
      check_true "monotone" (r.Trace.informed_total >= !prev);
      prev := r.Trace.informed_total)
    t.Trace.rounds;
  check_int "final" 5 !prev

let test_trace_flood_stall_signature () =
  let g = Wx_constructions.Cplus.create 10 in
  let t =
    Trace.run ~max_rounds:50 g ~source:(Wx_constructions.Cplus.source g)
      Sim_csr.flood (rng ~salt:191 ())
  in
  check_true "stalls" (not t.Trace.completed);
  (* After round 1 every round transmits but informs no one. *)
  check_true "stall signature" (Trace.stalled_rounds t >= 45)

let test_trace_render () =
  let g = Gen.star 6 in
  let t = Trace.run g ~source:0 Sim_csr.flood (rng ~salt:192 ()) in
  let s = Trace.render t in
  check_true "has round line" (String.length s > 20);
  check_true "reports completion"
    (let rec contains i =
       i + 9 <= String.length s && (String.sub s i 9 = "completed" || contains (i + 1))
     in
     contains 0)

let test_globally_phased_decay_completes () =
  let g = Gen.random_regular (rng ~salt:193 ()) 32 4 in
  let o =
    Sim_csr.run ~max_rounds:20_000 g ~source:0 Sim_csr.decay_globally_phased
      (rng ~salt:194 ())
  in
  check_true "completes" o.Wx_radio.Sim.completed

let test_run_all_quick_holds () =
  let checks = Wireless_expanders.Theorems.run_all ~quick:true (rng ~salt:195 ()) in
  check_true "nonempty" (List.length checks > 30);
  List.iter
    (fun c ->
      if not c.Wireless_expanders.Theorems.holds then
        Alcotest.failf "claim violated: %s on %s" c.Wireless_expanders.Theorems.claim
          c.Wireless_expanders.Theorems.instance)
    checks

let test_run_all_deterministic () =
  let a = Wireless_expanders.Theorems.run_all ~quick:true (Wx_util.Rng.create 3) in
  let b = Wireless_expanders.Theorems.run_all ~quick:true (Wx_util.Rng.create 3) in
  check_int "same count" (List.length a) (List.length b);
  List.iter2
    (fun x y ->
      check_true "same measured"
        (Wx_util.Floatx.approx_equal ~eps:1e-12 x.Wireless_expanders.Theorems.measured
           y.Wireless_expanders.Theorems.measured))
    a b

let test_trace_spokesmen_cast () =
  let g = Gen.grid 4 4 in
  let t =
    Trace.run g ~source:0 (Wx_radio.Spokesmen_cast.protocol g) (rng ~salt:196 ())
  in
  check_true "completes" t.Trace.completed;
  check_int "population recorded" 16 t.Trace.population

let suite =
  [
    Alcotest.test_case "trace records rounds" `Quick test_trace_records_rounds;
    Alcotest.test_case "flood stall signature" `Quick test_trace_flood_stall_signature;
    Alcotest.test_case "trace render" `Quick test_trace_render;
    Alcotest.test_case "globally phased decay" `Quick test_globally_phased_decay_completes;
    Alcotest.test_case "Theorems.run_all quick" `Slow test_run_all_quick_holds;
    Alcotest.test_case "run_all deterministic" `Slow test_run_all_deterministic;
    Alcotest.test_case "trace spokesmen-cast" `Quick test_trace_spokesmen_cast;
  ]
