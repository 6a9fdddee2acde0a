(** The radio engine: synchronous broadcast rounds over a {!Wx_graph.Graph.t}.

    The model of [8], Section 1.1: rounds are synchronous; in a round every
    processor either transmits or stays silent, and a silent processor
    receives the message iff {e exactly one} of its neighbors transmits.
    Two or more transmitting neighbors collide, which is indistinguishable
    from silence — the engine counts such collision events but never
    reveals them to protocols. A transmitter hears nothing.

    Each round scans all vertices (a {e gather}), counting transmitting
    neighbors off the graph's flat CSR rows ({!Wx_graph.Graph.offsets},
    {!Wx_graph.Graph.adjacency}) with an early exit at 2. Per-vertex
    state lives in preallocated [Bytes]/int arrays and the scan is sharded
    across {!Wx_par.Pool} domains by contiguous vertex ranges.

    {2 Protocols}

    A protocol is a single [fill]: it marks the upcoming round's
    transmitters. Distributed protocols ({!flood}, {!decay}, {!uniform})
    decide per vertex from local knowledge only (whether it holds the
    message, {!informed_since}, the round number, n, private randomness).
    Centralized ones ({!Spokesmen_cast}, {!Schedule.replay}) may look at
    the whole topology; they mark transmitters through the checked
    {!transmit}.

    {2 Determinism}

    Protocol randomness is drawn sequentially (ascending vertex order)
    before the scan, and shard results are packed ints summed in range
    order, so outcomes are bit-identical at any [jobs].

    {2 Cost}

    A steady-state [step] at [jobs = 1] allocates zero minor words (flood;
    randomized protocols pay only the Rng's boxed draws), and a saturated
    network costs O(1) per vertex per round. Every step credits
    {!Wx_obs.Work.vertex_scans} (n units) and {!Wx_obs.Work.rounds_simulated}
    (one unit). *)

type t
(** Mutable simulation state over one graph. *)

type protocol = { name : string; fill : t -> Wx_util.Rng.t -> unit }
(** A protocol fills the transmit scratch (cleared before the call) for
    the upcoming round, drawing any randomness in ascending vertex order. *)

val create : ?jobs:int -> ?range:int -> Wx_graph.Graph.t -> source:int -> t
(** Fresh state: only [source] informed, round 0. [jobs] defaults to
    {!Wx_par.Pool.default_jobs} (a [jobs]-independent result either way);
    [range] (default 16384) is the shard granularity. When [--metrics] is
    on, sets the [csr.n] / [csr.m] / [csr.bytes] footprint gauges (last
    create wins), observable via [/metrics]. *)

val step : t -> protocol -> Wx_util.Rng.t -> int
(** Execute one round; returns the newly-informed count. The scan runs
    sequentially when [jobs <= 1] or the instance fits one range —
    bypassing the pool keeps the steady-state step allocation-free. *)

val inform : t -> int -> unit
(** Seed an extra source: mark the vertex informed as of the current
    round (no-op if already informed). Multi-source broadcast, and the
    bench's handle for measuring the fully-saturated steady state. *)

val transmit : t -> int -> unit
(** [transmit t v] marks [v] as a transmitter of the round being filled.
    Raises [Invalid_argument] unless [v] holds the message — a processor
    cannot transmit what it does not have. For fills whose transmit set
    comes from data. *)

val graph : t -> Wx_graph.Graph.t
val round : t -> int
(** Rounds executed so far; inside a fill, the 0-based index of the round
    being filled. *)

val collisions : t -> int
(** Total collision events so far (vertex-rounds hearing ≥ 2 transmitters). *)

val informed_count : t -> int
val all_informed : t -> bool
val is_informed : t -> int -> bool

val informed_since : t -> int -> int
(** Round the vertex was informed (0 for the source), -1 if not yet. *)

val informed_set : t -> Wx_util.Bitset.t
(** A fresh copy of the informed set. *)

(** {2 Distributed protocols} *)

val flood : protocol
(** Every informed processor transmits every round — the strategy whose
    failure on C⁺ motivates the paper: once both clique attachment points
    are informed, every clique vertex hears a collision forever. *)

val phase_length : int -> int
(** [⌈log₂ n⌉ + 1] for an n-vertex network: Decay's phase length. *)

val decay : protocol
(** Decay (Bar-Yehuda, Goldreich and Itai [5]): time is divided into
    phases of {!phase_length} rounds; an informed processor in slot [i] of
    a phase (slots counted from 0, relative to the round it got the
    message) transmits with probability [2^{-i}]. *)

val decay_with_phase_length : int -> protocol
(** [decay_with_phase_length k] is Decay with an explicit phase length [k]
    (ablation: decay aggressiveness). Slots run over [0, k-1], so the
    coin's exponent stays within {!Wx_util.Rng.coin_pow2}'s exact domain.
    Raises [Invalid_argument] unless [1 <= k <= 62]. *)

val decay_globally_phased : protocol
(** Decay with globally aligned phases (slot = round mod k for every node),
    which makes same-slot neighbors collide more coherently — compared
    against the per-node variant in ablation A9. *)

val uniform : float -> protocol
(** Every informed processor transmits with a fixed probability [p]: the
    single-parameter baseline between flooding ([p = 1]) and silence.
    Raises [Invalid_argument] unless [0 ≤ p ≤ 1]. *)

(** {2 Drivers} *)

val run :
  ?max_rounds:int ->
  ?jobs:int ->
  ?range:int ->
  ?on_round:(Sim.round_info -> unit) ->
  Wx_graph.Graph.t ->
  source:int ->
  protocol ->
  Wx_util.Rng.t ->
  Sim.outcome
(** Run until everyone is informed or the limit (default
    {!Sim.round_limit}) is hit, invoking [on_round] after every round.
    With metrics enabled each round feeds the [radio.*] counters; with an
    NDJSON sink installed each round is a ["radio.round"] event. *)

val rounds_to_inform :
  ?max_rounds:int ->
  Wx_graph.Graph.t ->
  source:int ->
  target:int ->
  protocol ->
  Wx_util.Rng.t ->
  int option
(** Rounds until a specific target vertex is informed ([None] on timeout) —
    used for relay-to-relay times on the broadcast chain. *)

val rounds_to_fraction :
  ?max_rounds:int ->
  Wx_graph.Graph.t ->
  source:int ->
  subset:Wx_util.Bitset.t ->
  fraction:float ->
  protocol ->
  Wx_util.Rng.t ->
  int option
(** Rounds until ≥ [fraction] of [subset] is informed — Corollary 5.1
    measures this on the core graph's N side. *)

val monte_carlo :
  ?max_rounds:int ->
  Wx_graph.Graph.t ->
  source:int ->
  protocol ->
  seeds:int list ->
  (int -> Sim.outcome) * Sim.outcome list
(** [(per_seed, all)]: run one broadcast per seed; [per_seed] re-runs a
    single seed (for drilling into an outlier). This is how E11 reproduces
    the "in expectation and with high probability" qualifiers of the
    Section 5 lower bound. *)
