(* Schedule synthesis, graph I/O, Cheeger constants, expansion profiles. *)

module Schedule = Wx_radio.Schedule
module Graph_io = Wx_graph.Graph_io
module Cheeger = Wx_spectral.Cheeger
module Measure = Wx_expansion.Measure
module Graph = Wx_graph.Graph
module Gen = Wx_graph.Gen
module Bitset = Wx_util.Bitset
open Common

(* --- schedule synthesis --- *)

let test_schedule_completes_and_replays () =
  List.iter
    (fun (name, g) ->
      let sch = Schedule.synthesize (rng ~salt:150 ()) g ~source:0 in
      let ok, informed = Schedule.certify g sch in
      check_true (name ^ " replay completes") ok;
      check_int (name ^ " informed all") (Graph.n g) informed)
    [
      ("path-10", Gen.path 10);
      ("cycle-12", Gen.cycle 12);
      ("grid-5x5", Gen.grid 5 5);
      ("hypercube-4", Gen.hypercube 4);
      ("cplus-10", Wx_constructions.Cplus.create 10);
      ("rand-4reg-32", Gen.random_regular (rng ~salt:151 ()) 32 4);
    ]

let test_schedule_respects_bfs_lower_bound () =
  let g = Gen.path 12 in
  let sch = Schedule.synthesize (rng ~salt:152 ()) g ~source:0 in
  check_true "≥ eccentricity" (Schedule.length sch >= Schedule.lower_bound_rounds g ~source:0);
  (* On a path the synthesized schedule should be exactly the BFS depth. *)
  check_int "path is tight" 11 (Schedule.length sch)

let test_schedule_cplus_fast () =
  (* Scheduled broadcast resolves C+ in 2 rounds (s0, then one of x/y). *)
  let g = Wx_constructions.Cplus.create 12 in
  let sch = Schedule.synthesize (rng ~salt:153 ()) g ~source:(Wx_constructions.Cplus.source g) in
  check_int "two rounds" 2 (Schedule.length sch)

let test_schedule_transmitters_informed () =
  (* Replay marks transmitters through Sim_csr.transmit, which raises if a
     transmitter lacks the message; reaching completion proves schedule
     validity. *)
  let g = Gen.grid 4 6 in
  let sch = Schedule.synthesize (rng ~salt:154 ()) g ~source:5 in
  let ok, _ = Schedule.certify g sch in
  check_true "valid schedule" ok

let test_schedule_disconnected_fails () =
  let g = Graph.of_edges 4 [ (0, 1) ] in
  match Schedule.synthesize (rng ~salt:155 ()) g ~source:0 with
  | _ -> Alcotest.fail "expected failure on disconnected graph"
  | exception Failure _ -> ()

let test_schedule_beats_decay_on_chain () =
  let ch = Wx_constructions.Broadcast_chain.create (rng ~salt:156 ()) ~copies:2 ~s:8 in
  let g = ch.Wx_constructions.Broadcast_chain.graph in
  let sch = Schedule.synthesize (rng ~salt:157 ()) g ~source:0 in
  let ok, _ = Schedule.certify g sch in
  check_true "completes" ok;
  let decay =
    Wx_radio.Sim_csr.run ~max_rounds:20_000 g ~source:0
      Wx_radio.Sim_csr.decay (rng ~salt:158 ())
  in
  check_true "offline schedule ≤ decay rounds" (Schedule.length sch <= decay.Wx_radio.Sim.rounds)

(* --- graph io --- *)

let test_graph_roundtrip () =
  List.iter
    (fun g ->
      let g' = Graph_io.of_string (Graph_io.to_string g) in
      check_true "roundtrip" (Graph.equal g g'))
    [ Gen.cycle 7; Gen.grid 3 4; Gen.complete 5; Graph.of_edges 3 []; Gen.star 6 ]

let test_graph_io_comments_and_whitespace () =
  let g = Graph_io.of_string "# a comment\n 3 2 \n\n0 1\n# another\n1 2\n" in
  check_int "n" 3 (Graph.n g);
  check_int "m" 2 (Graph.m g)

let test_graph_io_bad_header () =
  match Graph_io.of_string "3\n" with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure msg -> check_true "line number in message" (String.length msg > 0)

let test_graph_io_edge_count_mismatch () =
  match Graph_io.of_string "3 2\n0 1\n" with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure _ -> ()

(* Graph_io validates what Graph.of_edges would reject, so a bad file
   fails like any other parse error: [Failure] naming the line. *)
let expect_line_failure ?(parse = fun s -> ignore (Graph_io.of_string s)) input line =
  match parse input with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure msg ->
      check_true msg (String.starts_with ~prefix:(Printf.sprintf "line %d:" line) msg)

let test_graph_io_self_loop () = expect_line_failure "3 2\n0 1\n# loop\n2 2\n" 4
let test_graph_io_out_of_range () = expect_line_failure "3 1\n\n0 3\n" 3
let test_graph_io_negative_n () = expect_line_failure "# header\n-2 0\n" 2

(* Absurd header counts fail on the header line, before any array is
   sized by them. *)
let test_graph_io_absurd_header () =
  expect_line_failure "1000000000000 0\n" 1;
  expect_line_failure (Printf.sprintf "3 %d\n" max_int) 1;
  expect_line_failure (Printf.sprintf "%d 0\n" (Graph_io.max_count + 1)) 1

let bipartite_parse s = ignore (Graph_io.bipartite_of_string s)

let test_bipartite_io_bad_counts () =
  expect_line_failure ~parse:bipartite_parse "-1 2 0\n" 1;
  expect_line_failure ~parse:bipartite_parse "2 -1 0\n" 1;
  expect_line_failure ~parse:bipartite_parse "2 2 -1\n" 1;
  expect_line_failure ~parse:bipartite_parse "1000000000000 2 0\n" 1;
  expect_line_failure ~parse:bipartite_parse (Printf.sprintf "2 %d 0\n" max_int) 1

let test_bipartite_io_out_of_range () =
  expect_line_failure ~parse:bipartite_parse "2 3 2\n0 1\n2 0\n" 3;
  expect_line_failure ~parse:bipartite_parse "2 3 1\n# w too big\n1 3\n" 3;
  expect_line_failure ~parse:bipartite_parse "2 3 1\n0 -1\n" 2

(* qcheck: hostile edge-list text — headers naming negative, absurd or
   overflowing counts, lines of the wrong arity or of non-integers — makes
   both parsers return or raise the documented [Failure], nothing else. *)
let arbitrary_hostile_edge_list =
  let token =
    QCheck.Gen.(
      oneof
        [
          map string_of_int (int_range (-3) 6);
          oneofl
            [ "1000000000000"; string_of_int max_int; string_of_int min_int;
              string_of_int (Graph_io.max_count + 1); "99999999999999999999"; "x"; "0x1f";
              "1_0"; "#"; "-" ];
        ])
  in
  let line = QCheck.Gen.(map (String.concat " ") (list_size (int_range 0 4) token)) in
  QCheck.make ~print:String.escaped
    QCheck.Gen.(map (String.concat "\n") (list_size (int_range 0 6) line))

let prop_io_hostile_only_failure input =
  let only_failure parse = match parse input with () -> true | exception Failure _ -> true in
  only_failure (fun s -> ignore (Graph_io.of_string s)) && only_failure bipartite_parse

let test_graph_io_file_roundtrip () =
  let g = Gen.torus 3 4 in
  let path = Filename.temp_file "wx" ".graph" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Graph_io.save g path;
      check_true "file roundtrip" (Graph.equal g (Graph_io.load path)))

let test_bipartite_roundtrip () =
  let t = Gen.random_bipartite_sdeg (rng ~salt:159 ()) ~s:8 ~n:12 ~d:3 in
  let t' = Graph_io.bipartite_of_string (Graph_io.bipartite_to_string t) in
  check_int "s" (Wx_graph.Bipartite.s_count t) (Wx_graph.Bipartite.s_count t');
  check_int "m" (Wx_graph.Bipartite.m t) (Wx_graph.Bipartite.m t');
  check_true "same edges"
    (Graph_io.bipartite_to_string t = Graph_io.bipartite_to_string t')

(* --- cheeger --- *)

let test_cut_edges () =
  let g = Gen.cycle 6 in
  check_int "arc cut" 2 (Cheeger.cut_edges g (Bitset.of_list 6 [ 0; 1; 2 ]));
  check_int "alternating cut" 6 (Cheeger.cut_edges g (Bitset.of_list 6 [ 0; 2; 4 ]))

let test_h_exact_cycle () =
  (* Cycle 2k: worst cut is an arc of k: 2/k. *)
  let h, w = Cheeger.h_exact (Gen.cycle 12) in
  check_float "h = 1/3" (1.0 /. 3.0) h;
  check_int "witness arc" 6 (Bitset.cardinal w)

let test_h_exact_complete () =
  (* K_n: any |S| = n/2 cut has |S|·(n/2) edges → h = n/2. *)
  let h, _ = Cheeger.h_exact (Gen.complete 8) in
  check_float "K8" 4.0 h

let test_h_sampled_upper_bounds_exact () =
  List.iter
    (fun g ->
      let exact, _ = Cheeger.h_exact g in
      let sampled, _ = Cheeger.h_sampled (rng ~salt:160 ()) ~samples:500 g in
      check_true "sampled >= exact" (sampled >= exact -. 1e-9))
    [ Gen.cycle 10; Gen.grid 3 4; Gen.hypercube 3 ]

let test_cheeger_sandwich () =
  (* (d−λ₂)/2 ≤ h ≤ √(2d(d−λ₂)) on regular connected graphs, exactly. *)
  List.iter
    (fun g ->
      match Graph.is_regular g with
      | Some d when Wx_graph.Traversal.is_connected g ->
          let lambda2 = Wx_spectral.Spectral_gap.lambda2_regular g (rng ~salt:161 ()) in
          let lo, hi = Cheeger.cheeger_bounds ~d ~lambda2 in
          let h, _ = Cheeger.h_exact g in
          check_true
            (Printf.sprintf "sandwich lo (%.3f <= %.3f)" lo h)
            (lo <= h +. 1e-6);
          check_true (Printf.sprintf "sandwich hi (%.3f <= %.3f)" h hi) (h <= hi +. 1e-6)
      | _ -> ())
    [
      Gen.cycle 10; Gen.complete 8; Gen.hypercube 3; Gen.hypercube 4; Gen.torus 3 4;
      Gen.random_regular (rng ~salt:162 ()) 12 3;
    ]

(* --- threshold partition + random chain + lemma 4.1 --- *)

let test_partition_threshold () =
  let t = Gen.random_bipartite_sdeg (rng ~salt:163 ()) ~s:20 ~n:30 ~d:4 in
  (* t = 2 must match the Lemma A.3 solver exactly. *)
  let a = Wx_spokesmen.Partition.solve_degree_capped t in
  let b = Wx_spokesmen.Partition.solve_threshold ~t_param:2.0 t in
  check_int "t=2 = capped" a.Wx_spokesmen.Solver.covered b.Wx_spokesmen.Solver.covered;
  (* Larger t keeps more of N; solver stays valid. *)
  let c = Wx_spokesmen.Partition.solve_threshold ~t_param:8.0 t in
  check_int "valid objective" (Wx_spokesmen.Solver.evaluate t c.Wx_spokesmen.Solver.chosen)
    c.Wx_spokesmen.Solver.covered;
  Alcotest.check_raises "t <= 1 rejected"
    (Invalid_argument "Partition.solve_threshold: t must be > 1") (fun () ->
      ignore (Wx_spokesmen.Partition.solve_threshold ~t_param:1.0 t))

let test_random_chain_shape () =
  let ch = Wx_constructions.Broadcast_chain.create_random (rng ~salt:164 ()) ~copies:3 ~s:8 in
  let explicit = Wx_constructions.Broadcast_chain.create (rng ~salt:165 ()) ~copies:3 ~s:8 in
  check_int "same vertex count"
    (Wx_constructions.Broadcast_chain.total_vertices explicit)
    (Wx_constructions.Broadcast_chain.total_vertices ch);
  check_true "connected" (Wx_graph.Traversal.is_connected ch.Wx_constructions.Broadcast_chain.graph);
  (* Decay completes on it. *)
  let o =
    Wx_radio.Sim_csr.run ~max_rounds:50_000
      ch.Wx_constructions.Broadcast_chain.graph
      ~source:0 Wx_radio.Sim_csr.decay (rng ~salt:166 ())
  in
  check_true "broadcast completes" o.Wx_radio.Sim.completed

let test_lemma_4_1_checker () =
  List.iter
    (fun (name, g) ->
      let c = Wireless_expanders.Theorems.lemma_4_1 name g in
      check_true (name ^ " holds") c.Wireless_expanders.Theorems.holds)
    [ ("complete-8", Gen.complete 8); ("cycle-10", Gen.cycle 10); ("grid-3x3", Gen.grid 3 3) ]

(* --- profiles --- *)

let test_profile_beta_u_cycle () =
  (* Even cycle: the alternating set at k = n/2 has βu = 0. *)
  let profile = Measure.profile_beta_u (Gen.cycle 10) in
  check_float "k = 5 is zero" 0.0 (List.assoc 5 profile);
  check_true "k = 1 positive" (List.assoc 1 profile > 0.0)

let test_profile_beta_w_ordering () =
  (* Per size: β profile ≥ βw profile ≥ βu profile. *)
  let g = Gen.grid 3 3 in
  let pb = Measure.profile_beta g in
  let pw = Measure.profile_beta_w g in
  let pu = Measure.profile_beta_u g in
  List.iter
    (fun (k, bw) ->
      let b = List.assoc k pb and bu = List.assoc k pu in
      check_true "β >= βw" (b >= bw -. 1e-9);
      check_true "βw >= βu" (bw >= bu -. 1e-9))
    pw

let test_profile_beta_w_min_is_beta_w () =
  let g = Gen.cycle 9 in
  let pw = Measure.profile_beta_w g in
  let min_profile = List.fold_left (fun acc (_, v) -> Float.min acc v) infinity pw in
  check_float "profile min = βw" (Measure.beta_w_exact g).Measure.value min_profile

let suite =
  [
    Alcotest.test_case "schedule completes+replays" `Quick test_schedule_completes_and_replays;
    Alcotest.test_case "schedule BFS lower bound" `Quick test_schedule_respects_bfs_lower_bound;
    Alcotest.test_case "schedule C+ fast" `Quick test_schedule_cplus_fast;
    Alcotest.test_case "schedule validity" `Quick test_schedule_transmitters_informed;
    Alcotest.test_case "schedule disconnected" `Quick test_schedule_disconnected_fails;
    Alcotest.test_case "schedule <= decay" `Quick test_schedule_beats_decay_on_chain;
    Alcotest.test_case "graph roundtrip" `Quick test_graph_roundtrip;
    Alcotest.test_case "io comments" `Quick test_graph_io_comments_and_whitespace;
    Alcotest.test_case "io bad header" `Quick test_graph_io_bad_header;
    Alcotest.test_case "io count mismatch" `Quick test_graph_io_edge_count_mismatch;
    Alcotest.test_case "io self-loop" `Quick test_graph_io_self_loop;
    Alcotest.test_case "io endpoint out of range" `Quick test_graph_io_out_of_range;
    Alcotest.test_case "io negative n" `Quick test_graph_io_negative_n;
    Alcotest.test_case "io absurd header" `Quick test_graph_io_absurd_header;
    Alcotest.test_case "bipartite io bad counts" `Quick test_bipartite_io_bad_counts;
    Alcotest.test_case "bipartite io endpoint out of range" `Quick test_bipartite_io_out_of_range;
    qcheck ~count:500 "io hostile input raises only Failure" prop_io_hostile_only_failure
      arbitrary_hostile_edge_list;
    Alcotest.test_case "io file roundtrip" `Quick test_graph_io_file_roundtrip;
    Alcotest.test_case "bipartite roundtrip" `Quick test_bipartite_roundtrip;
    Alcotest.test_case "cut edges" `Quick test_cut_edges;
    Alcotest.test_case "h exact cycle" `Quick test_h_exact_cycle;
    Alcotest.test_case "h exact complete" `Quick test_h_exact_complete;
    Alcotest.test_case "h sampled bound" `Quick test_h_sampled_upper_bounds_exact;
    Alcotest.test_case "cheeger sandwich" `Quick test_cheeger_sandwich;
    Alcotest.test_case "partition threshold" `Quick test_partition_threshold;
    Alcotest.test_case "random chain" `Quick test_random_chain_shape;
    Alcotest.test_case "lemma 4.1 checker" `Quick test_lemma_4_1_checker;
    Alcotest.test_case "profile βu cycle" `Quick test_profile_beta_u_cycle;
    Alcotest.test_case "profile ordering" `Quick test_profile_beta_w_ordering;
    Alcotest.test_case "profile min = βw" `Quick test_profile_beta_w_min_is_beta_w;
  ]
