(** Offline broadcast schedule synthesis — the Chlamtac–Weinstein
    application of spokesmen election ([7], §4.2.1).

    Given full topology knowledge, compute an explicit round-by-round list
    of transmitter sets that completes a broadcast. Each round solves a
    spokesmen-election instance on the current frontier, so the number of
    rounds is governed by the graph's wireless expansion: per round, a
    [βw/(1+βw)]-ish fraction of the remaining boundary gets informed.

    The synthesized schedule is a {e certificate}: {!certify} re-executes
    it on the engine under collision semantics and checks it really
    informs everyone — synthesis bugs cannot silently produce wrong round
    counts. *)

module Bitset = Wx_util.Bitset
module Graph = Wx_graph.Graph

type t = {
  source : int;
  rounds : Bitset.t array;  (** transmitter set per round, in order *)
}

val length : t -> int

val synthesize :
  ?solver:Spokesmen_cast.solver -> ?max_rounds:int -> Wx_util.Rng.t -> Graph.t -> source:int -> t
(** Greedy synthesis with the given per-round solver (default: the full
    portfolio with a branch-and-bound attempt on small frontiers), stepping
    {!Sim_csr} with each round's choice. Raises [Failure] if the graph is
    disconnected from the source or the round limit (default [4·n + 64])
    is hit. *)

val replay : t -> Sim_csr.protocol
(** The schedule as a fill: engine round [r] transmits [rounds.(r)]
    (silence once the schedule is exhausted). Raises [Invalid_argument]
    (from {!Sim_csr.transmit}) if a scheduled transmitter does not hold
    the message when it transmits. *)

val certify : Graph.t -> t -> bool * int
(** Step the engine through {!replay} from [source] for [length] rounds;
    returns (everyone informed?, informed count). Raises like {!replay}. *)

val lower_bound_rounds : Graph.t -> source:int -> int
(** Eccentricity of the source — no schedule beats the BFS depth. *)
