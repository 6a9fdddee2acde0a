(** Best-of-all-solvers portfolio.

    Runs every polynomial solver in the library on an instance and returns
    the best candidate. This is what the radio-broadcast upper-bound
    protocol ({!Wx_radio.Spokesmen_cast}) uses each round, and what E7/E9
    report as "ours (best)". *)

module Bipartite = Wx_graph.Bipartite

val solvers : (string * (reps:int -> Wx_util.Rng.t -> Bipartite.t -> Solver.result)) list
(** The constituent solvers, by name: decay, decay-all-buckets, naive,
    partition, partition-capped, partition-recursive, buckets,
    buckets-all-classes, greedy, greedy-local, anneal. [reps] is the
    repetition count of the decay samplers; the others ignore it. *)

val solve : reps:int -> Wx_util.Rng.t -> Bipartite.t -> Solver.result
(** Run all of them and keep the best; [reps] is passed to each. *)

val solve_each : reps:int -> Wx_util.Rng.t -> Bipartite.t -> (string * Solver.result) list
(** Per-solver results, for side-by-side comparison tables. *)
