module Bitset = Wx_util.Bitset
module Graph = Wx_graph.Graph
module Bipartite = Wx_graph.Bipartite

type solver = Wx_util.Rng.t -> Bipartite.t -> Wx_spokesmen.Solver.result

let choose solve g t rng =
  let informed = Sim_csr.informed_set t in
  let inst, s_map, _ = Bipartite.of_set_neighborhood g informed in
  if Bipartite.n_count inst = 0 then None (* nothing reachable *)
  else begin
    let r = solve rng inst in
    let tx = Bitset.create (Graph.n g) in
    Bitset.iter (fun i -> Bitset.add_inplace tx s_map.(i)) r.Wx_spokesmen.Solver.chosen;
    (* Transmitting nothing stalls forever; if the solver returned an
       empty set (degenerate instance), fall back to one arbitrary
       informed vertex with an uninformed neighbor. *)
    if Bitset.is_empty tx then begin
      try
        Bitset.iter
          (fun v ->
            if Graph.fold_neighbors g v (fun acc w -> acc || not (Bitset.mem informed w)) false
            then begin
              Bitset.add_inplace tx v;
              raise Exit
            end)
          informed
      with Exit -> ()
    end;
    Some tx
  end

let with_solver name solve g =
  {
    Sim_csr.name;
    fill =
      (fun t rng ->
        if Graph.n g <> Graph.n (Sim_csr.graph t) then
          invalid_arg "Spokesmen_cast: engine runs a different graph";
        match choose solve g t rng with
        | None -> () (* stay silent *)
        | Some tx -> Bitset.iter (Sim_csr.transmit t) tx);
  }

let protocol g =
  with_solver "spokesmen-cast" (fun rng inst -> Wx_spokesmen.Portfolio.solve ~reps:16 rng inst) g
