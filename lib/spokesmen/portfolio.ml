module Bipartite = Wx_graph.Bipartite

let solvers =
  [
    ("decay", fun ~reps rng t -> Decay.solve ~reps rng t);
    ("decay-all-buckets", fun ~reps rng t -> Decay.solve ~reps ~all_buckets:true rng t);
    ("naive", fun ~reps:_ _ t -> Naive.solve t);
    ("partition", fun ~reps:_ _ t -> Partition.solve t);
    ("partition-capped", fun ~reps:_ _ t -> Partition.solve_degree_capped t);
    ("partition-recursive", fun ~reps:_ _ t -> Partition.solve_recursive t);
    ("buckets", fun ~reps:_ _ t -> Buckets.solve t);
    ("buckets-all-classes", fun ~reps:_ _ t -> Buckets.solve_all_classes t);
    ("greedy", fun ~reps:_ _ t -> Greedy.solve t);
    ("greedy-local", fun ~reps:_ _ t -> Greedy.solve_with_removal t);
    ("anneal", fun ~reps:_ rng t -> Anneal.solve ~steps:(50 * Bipartite.s_count t) rng t);
  ]

(* One timer per solver: the portfolio is where every solver runs under a
   common harness, so this is the single place that gives all of them a
   latency distribution. *)
let solver_timers =
  List.map (fun (name, _) -> (name, Wx_obs.Metrics.timer ("spokesmen.solver." ^ name))) solvers

let solve_each ~reps rng t =
  List.map2
    (fun (name, f) (_, tm) -> (name, Wx_obs.Metrics.time tm (fun () -> f ~reps rng t)))
    solvers solver_timers

let solve ~reps rng t =
  match solve_each ~reps rng t with
  | [] -> invalid_arg "Portfolio.solve: no solvers"
  | (_, first) :: rest ->
      List.fold_left (fun acc (_, r) -> Solver.best acc r) first rest
