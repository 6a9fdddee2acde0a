module Bitset = Wx_util.Bitset
module Graph = Wx_graph.Graph
module Bipartite = Wx_graph.Bipartite
module Solver = Wx_spokesmen.Solver

type t = { source : int; rounds : Bitset.t array }

let length t = Array.length t.rounds

let default_solver rng inst =
  (* Small frontiers: prove the per-round optimum with branch-and-bound;
     otherwise the polynomial portfolio. *)
  if Bipartite.s_count inst <= 24 then begin
    match Wx_spokesmen.Bb.solve ~node_limit:500_000 inst with
    | r, Wx_spokesmen.Bb.Proved_optimal -> r
    | r, Wx_spokesmen.Bb.Budget_exhausted ->
        Solver.best r (Wx_spokesmen.Portfolio.solve ~reps:24 rng inst)
  end
  else Wx_spokesmen.Portfolio.solve ~reps:24 rng inst

(* Run the engine with a spokesmen fill that records each round's
   transmit set; the engine applies the reception rule. *)
let synthesize ?(solver = default_solver) ?max_rounds rng g ~source =
  let limit = match max_rounds with Some m -> m | None -> (4 * Graph.n g) + 64 in
  let rounds = ref [] in
  let fill t rng =
    match Spokesmen_cast.choose solver g t rng with
    | None -> failwith "Schedule.synthesize: graph disconnected from source"
    | Some tx ->
        rounds := tx :: !rounds;
        Bitset.iter (Sim_csr.transmit t) tx
  in
  let protocol = { Sim_csr.name = "schedule"; fill } in
  let t = Sim_csr.create g ~source in
  while not (Sim_csr.all_informed t) do
    if Sim_csr.round t >= limit then failwith "Schedule.synthesize: round limit hit";
    ignore (Sim_csr.step t protocol rng)
  done;
  { source; rounds = Array.of_list (List.rev !rounds) }

let replay sch =
  {
    Sim_csr.name = "schedule-replay";
    fill =
      (fun t _rng ->
        let r = Sim_csr.round t in
        if r < length sch then Bitset.iter (Sim_csr.transmit t) sch.rounds.(r));
  }

let certify g sch =
  let t = Sim_csr.create g ~source:sch.source in
  let fill = replay sch and rng = Wx_util.Rng.create 0 in
  for _ = 1 to length sch do
    ignore (Sim_csr.step t fill rng)
  done;
  (Sim_csr.all_informed t, Sim_csr.informed_count t)

let lower_bound_rounds g ~source = Wx_graph.Traversal.eccentricity g source
