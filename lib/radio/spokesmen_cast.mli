(** Centralized wireless-expander broadcast.

    Each round, form the bipartite instance between the informed set and
    its uninformed neighborhood, run a spokesmen solver on it, and let the
    chosen subset transmit. On a graph with wireless expansion βw, each
    round informs ≥ βw·|frontier| new vertices (until the α-limit), which
    is exactly the information-dissemination guarantee the wireless
    expander definition was built for.

    The protocol is centralized: its fill closes over the {!Wx_graph.Graph.t}
    the engine's CSR was built from. The Section 5 lower bound holds
    against such schedules too, which is what makes reproducing it with a
    centralized upper-bound protocol meaningful. *)

type solver = Wx_util.Rng.t -> Wx_graph.Bipartite.t -> Wx_spokesmen.Solver.result

val protocol : Wx_graph.Graph.t -> Sim_csr.protocol
(** Uses the full solver portfolio (best candidate each round). *)

val with_solver : string -> solver -> Wx_graph.Graph.t -> Sim_csr.protocol
(** Plug a specific solver (ablation: decay-only vs portfolio). *)

val choose : solver -> Wx_graph.Graph.t -> Sim_csr.t -> Wx_util.Rng.t -> Wx_util.Bitset.t option
(** The round's transmitter set: the solver's choice on the current
    frontier, or one informed vertex with an uninformed neighbor if the
    solver chose nothing. [None] when no informed vertex has an uninformed
    neighbor. Shared with {!Schedule.synthesize}. *)
