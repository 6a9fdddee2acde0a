type round = Sim.round_info = {
  index : int;
  transmitters : int;
  newly_informed : int;
  informed_total : int;
  collisions_this_round : int;
}

type t = { rounds : round list; completed : bool; population : int }

(* Tracing is a view over the engine's own per-round records: run
   Sim_csr with an [on_round] accumulator rather than duplicating the
   collision/frontier bookkeeping here. *)
let run ?(max_rounds = 4096) g ~source protocol rng =
  let rounds = ref [] in
  let on_round r = rounds := r :: !rounds in
  let o = Sim_csr.run ~max_rounds ~on_round g ~source protocol rng in
  { rounds = List.rev !rounds; completed = o.Sim.completed; population = Wx_graph.Graph.n g }

let render ?(width = 24) t =
  let buf = Buffer.create 1024 in
  let total = max 1 t.population in
  List.iter
    (fun r ->
      let filled = r.informed_total * width / total in
      Buffer.add_string buf
        (Printf.sprintf "r %3d | tx %4d | + %4d | informed %5d | coll %4d | %s%s\n" r.index
           r.transmitters r.newly_informed r.informed_total r.collisions_this_round
           (String.make filled '#')
           (String.make (width - filled) '.')))
    t.rounds;
  Buffer.add_string buf (if t.completed then "completed\n" else "STALLED / round limit\n");
  Buffer.contents buf

let stalled_rounds t =
  List.length (List.filter (fun r -> r.transmitters > 0 && r.newly_informed = 0) t.rounds)
