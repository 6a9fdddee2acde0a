(** Arboricity and density measures (Section 2.1).

    The paper's corollary for low-arboricity graphs (planar graphs, graphs
    excluding a fixed minor) hinges on
    [arboricity ≥ min{∆/β, ∆·β}] and on the arboricity matching the maximum
    average degree over induced subgraphs up to a factor 2. *)

val density_of_subset : Graph.t -> Wx_util.Bitset.t -> float
(** [|E(U)| / (|U| − 1)] for the induced subgraph; 0 when [|U| <= 1]. *)

val avg_degree_of_subset : Graph.t -> Wx_util.Bitset.t -> float
(** [2|E(U)| / |U|]; 0 on the empty set. *)

val exact : Graph.t -> int
(** Exact arboricity [max_U ⌈|E(U)|/(|U|−1)⌉] by subset enumeration.
    Exponential; requires [n ≤ 20]. *)

val peel : Graph.t -> int array * int array * int array * int
(** Min-degree peeling, the lowest-index vertex first among equal degrees:
    [(order, remaining_edges, remaining_vertices, degeneracy)], where step
    [i] removes [order.(i)] from a graph of [remaining_vertices.(i)]
    vertices and [remaining_edges.(i)] edges, and [degeneracy] is the
    largest degree seen at removal. O(m log n). *)

val lower_bound_peeling : Graph.t -> int
(** Arboricity lower bound via the degeneracy-ordering densest-subgraph
    2-approximation: returns [max ⌈density⌉] over the peeling suffixes.
    Sound lower bound for any n. *)

val degeneracy : Graph.t -> int
(** Graph degeneracy via min-degree peeling. Arboricity ≤ degeneracy and
    degeneracy ≤ 2·arboricity − 1, so this also yields an upper bound. *)

val paper_lower_bound : delta:int -> beta:float -> float
(** The paper's bound: arboricity of an (α,β)-expander with max degree ∆ is
    at least [min (∆/β) (∆·β)]. *)
