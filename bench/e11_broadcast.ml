(* E11 — Section 5: the Ω(D·log(n/D)) broadcast lower bound, Monte-Carlo.

   Table 1: chained-core-graph sweep. For each (D/2, s) we run the
   distributed Decay protocol and the centralized spokesmen broadcast over
   many seeds; every sample must exceed the instance lower bound
   copies·log₂(2s)/4, and the mean should scale like D·log(n/D).

   Table 2: Corollary 5.1 head-on — on a rooted core graph, rounds to
   reach a 2i/log(2s) fraction of N are ≥ 1 + i for every protocol. *)

open Bench_common
module Broadcast_chain = Wx_constructions.Broadcast_chain
module Core_graph = Wx_constructions.Core_graph

let th_add th i arr hop_lb =
  Table.add_row th
    [
      Table.fi (i + 1);
      Table.ff ~dec:1 (Stats.mean arr);
      Table.ff ~dec:0 (Stats.min arr);
      Table.ff ~dec:0 (Stats.max arr);
      Table.ff ~dec:2 hop_lb;
    ]

let run ~quick =
  print_endline "-- broadcast time on chained core graphs (to the last relay) --";
  let grid =
    if quick then [ (2, 8) ] else [ (2, 8); (2, 16); (4, 8); (4, 16); (4, 32); (8, 16); (8, 32) ]
  in
  let seeds = List.init (if quick then 5 else 15) (fun i -> 1000 + i) in
  let t =
    Table.create
      [ "D/2"; "s"; "n"; "diam"; "paper lb"; "decay mean"; "decay min"; "spokesmen mean"; "all>lb" ]
  in
  let ok = ref 0 and total = ref 0 in
  List.iter
    (fun (copies, s) ->
      let ch = Broadcast_chain.create (rng (1100 + copies + s)) ~copies ~s in
      let g = ch.Broadcast_chain.graph in
      let target = ch.Broadcast_chain.relays.(copies - 1) in
      let lb = Broadcast_chain.paper_round_lb ch in
      let times protocol =
        List.filter_map
          (fun seed ->
            Sim_csr.rounds_to_inform ~max_rounds:100_000 g ~source:0 ~target protocol
              (Rng.create seed))
          seeds
      in
      let decay = times Sim_csr.decay in
      let spokes = times (Wx_radio.Spokesmen_cast.protocol g) in
      let arr l = Stats.of_ints (Array.of_list l) in
      let holds =
        List.for_all (fun r -> float_of_int r >= lb) decay
        && List.for_all (fun r -> float_of_int r >= lb) spokes
      in
      incr total;
      if holds then incr ok;
      record ~claim:"§5: rounds ≥ D/2·log(2s)/4"
        ~instance:(Printf.sprintf "chain(D/2=%d,s=%d)" copies s)
        ~predicted:lb
        ~measured:(Stats.min (arr decay))
        holds;
      Table.add_row t
        [
          Table.fi copies;
          Table.fi s;
          Table.fi (Graph.n g);
          Table.fi (Broadcast_chain.diameter_estimate ch);
          Table.ff ~dec:1 lb;
          Table.ff ~dec:1 (Stats.mean (arr decay));
          Table.ff ~dec:0 (Stats.min (arr decay));
          Table.ff ~dec:1 (Stats.mean (arr spokes));
          Table.fb holds;
        ])
    grid;
  Table.print t;

  (* Per-hop relay times: the Kushilevitz–Mansour argument sums D/2 i.i.d.
     per-hop times R_i, each Ω(log(n/D)); measure their distribution. *)
  if not quick then begin
    print_endline "\n-- per-hop relay times R_i on a (D/2 = 6, s = 16) chain (decay, 12 seeds) --";
    let ch = Broadcast_chain.create (rng 1150) ~copies:6 ~s:16 in
    let per_hop = Array.make 6 [] in
    List.iter
      (fun seed ->
        let r = Rng.create seed in
        (* One run; record the first round at which each relay is informed. *)
        let st = Sim_csr.create ch.Broadcast_chain.graph ~source:0 in
        let informed_at = Array.make 6 (-1) in
        while Array.exists (fun x -> x < 0) informed_at && Sim_csr.round st < 100_000 do
          ignore (Sim_csr.step st Sim_csr.decay r);
          Array.iteri
            (fun i rt ->
              if informed_at.(i) < 0 && Sim_csr.is_informed st rt then
                informed_at.(i) <- Sim_csr.round st)
            ch.Broadcast_chain.relays
        done;
        Array.iteri
          (fun i at ->
            let prev = if i = 0 then 0 else informed_at.(i - 1) in
            if at > 0 then per_hop.(i) <- (at - prev) :: per_hop.(i))
          informed_at)
      (List.init 12 (fun i -> 5000 + i));
    let th = Table.create [ "hop i"; "mean R_i"; "min"; "max"; "Cor 5.1 per-hop lb" ] in
    let hop_lb = Floatx.log2 (2.0 *. 16.0) /. 4.0 in
    Array.iteri
      (fun i times ->
        if times <> [] then begin
          let arr = Stats.of_ints (Array.of_list times) in
          th_add th i arr hop_lb
        end)
      per_hop;
    Table.print th;
    print_endline "  (hops are i.i.d.-ish and each exceeds the per-hop bound — the Chernoff\n\
                  \   concentration behind the w.h.p. version of the Section 5 bound)"
  end;

  (* Offline schedules are protocols too: the lower bound must hold for the
     synthesizer's output as well. *)
  if not quick then begin
    print_endline "\n-- offline synthesized schedules vs the same lower bound --";
    let ts = Table.create [ "D/2"; "s"; "schedule rounds"; "paper lb"; "BFS lb"; "holds" ] in
    List.iter
      (fun (copies, s) ->
        let ch = Broadcast_chain.create (rng (1160 + copies + s)) ~copies ~s in
        let g = ch.Broadcast_chain.graph in
        let sch = Wx_radio.Schedule.synthesize (rng 1161) g ~source:0 in
        let complete, _ = Wx_radio.Schedule.certify g sch in
        let lb = Broadcast_chain.paper_round_lb ch in
        let bfs_lb = Wx_radio.Schedule.lower_bound_rounds g ~source:0 in
        let len = Wx_radio.Schedule.length sch in
        let holds = complete && float_of_int len >= lb && len >= bfs_lb in
        incr total;
        if holds then incr ok;
        record ~claim:"§5: offline schedule ≥ lb"
          ~instance:(Printf.sprintf "chain(D/2=%d,s=%d)" copies s)
          ~predicted:lb ~measured:(float_of_int len) holds;
        Table.add_row ts
          [
            Table.fi copies; Table.fi s; Table.fi len; Table.ff ~dec:1 lb; Table.fi bfs_lb;
            Table.fb holds;
          ])
      [ (2, 8); (4, 8); (4, 16) ];
    Table.print ts
  end;

  print_endline "\n-- Corollary 5.1: rounds to inform a 2i/log(2s) fraction of N --";
  let s = if quick then 16 else 64 in
  let cg = Core_graph.create s in
  let inst = Core_graph.bip cg in
  (* Attach a root rt adjacent to all of S; N occupies [s ..]. *)
  let es = ref [] in
  Bipartite.iter_edges inst (fun u w -> es := (1 + u, 1 + s + w) :: !es);
  for u = 0 to s - 1 do
    es := (0, 1 + u) :: !es
  done;
  let g = Graph.of_edges (1 + s + Bipartite.n_count inst) !es in
  let n_side =
    Bitset.of_array (Graph.n g) (Array.init (Bipartite.n_count inst) (fun w -> 1 + s + w))
  in
  let log2s = Floatx.log2 (2.0 *. float_of_int s) in
  let t2 =
    Table.create [ "i"; "fraction"; "min rounds (Cor 5.1)"; "decay"; "spokesmen"; "holds" ]
  in
  let imax = int_of_float (log2s /. 2.0) in
  for i = 1 to imax do
    let fraction = Float.min 1.0 (2.0 *. float_of_int i /. log2s) in
    let measure protocol seed =
      match
        Sim_csr.rounds_to_fraction ~max_rounds:50_000 g ~source:0 ~subset:n_side ~fraction
          protocol (Rng.create seed)
      with
      | Some r -> r
      | None -> max_int
    in
    let d = measure Sim_csr.decay 7 in
    let sp = measure (Wx_radio.Spokesmen_cast.protocol g) 7 in
    let bound = Bounds.corollary_5_1_min_rounds ~s ~i in
    let holds = d >= bound && sp >= bound in
    incr total;
    if holds then incr ok;
    record ~claim:"Cor 5.1: rounds to 2i/log(2s) fraction"
      ~instance:(Printf.sprintf "core(s=%d) i=%d" s i)
      ~predicted:(float_of_int bound)
      ~measured:(float_of_int (min d sp))
      holds;
    Table.add_row t2
      [
        Table.fi i;
        Table.ff ~dec:3 fraction;
        Table.fi bound;
        Table.fi d;
        Table.fi sp;
        Table.fb holds;
      ]
  done;
  Table.print t2;
  verdict !ok !total

let experiment =
  {
    id = "e11";
    title = "Ω(D·log(n/D)) radio broadcast lower bound, Monte-Carlo";
    claim = "Section 5, Corollary 5.1";
    run;
  }
