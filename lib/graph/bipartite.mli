(** Two-sided bipartite graphs [(S, N, E)].

    Section 4 of the paper works entirely on the bipartite graph between a
    vertex set [S] and its external neighborhood [N = Γ⁻(S)]; this module is
    that representation. Side-[S] vertices and side-[N] vertices are indexed
    independently from 0, so the same integer means different vertices on
    different sides. Each side is stored in compressed sparse rows, the
    layout of {!Graph.t}: row [u] of side S is
    [adjacency_s.(offsets_s.(u) .. offsets_s.(u+1) - 1)], sorted ascending,
    and side N likewise. *)

type t

val of_edge_array : ?edges:int -> s:int -> n:int -> int array -> t
(** [of_edge_array ~s ~n ends] reads edge [i] as S-vertex [ends.(2i)] to
    N-vertex [ends.(2i+1)]; [edges] (default [Array.length ends / 2])
    reads only the first [edges] pairs. Duplicates collapsed; range
    errors raise. O(s + n + m) by counting-sort transposes, with every row
    sorted ascending. *)

val of_rows : n:int -> int array -> int array -> t
(** [of_rows ~n offsets adjacency] is the instance whose S rows are stored
    as given, each strictly ascending in [0, n), for generators that write
    their rows sorted: no endpoint array, no counting sort. It keeps both
    arrays; do not mutate them. Raises [Invalid_argument] on a malformed
    layout. *)

val s_count : t -> int
val n_count : t -> int
val m : t -> int

val deg_s : t -> int -> int
(** Degree of an S-vertex. *)

val deg_n : t -> int -> int
(** Degree of an N-vertex. *)

val offsets_s : t -> int array
val adjacency_s : t -> int array
val offsets_n : t -> int array
val adjacency_n : t -> int array
(** The rows themselves, laid out as above: [offsets_s] has length [s + 1],
    [offsets_n] length [n + 1], each adjacency array length [m].
    {b Do not mutate} — they are the instance's own storage. *)

val iter_s : t -> int -> (int -> unit) -> unit
val iter_n : t -> int -> (int -> unit) -> unit
(** [iter_s t u f] calls [f] on each N-neighbour of S-vertex [u] in
    ascending order; [iter_n] likewise from side N. *)

val max_deg_s : t -> int
val max_deg_n : t -> int

val delta_s : t -> float
(** Average degree of side S ([δ_S] in the paper: Σ deg(u,N)/|S|). *)

val delta_n : t -> float
(** Average degree of side N ([δ_N]). *)

val beta : t -> float
(** The instance's expansion measure [|N| / |S|] (the paper's normalization
    when N is exactly the neighborhood of S). *)

val iter_edges : t -> (int -> int -> unit) -> unit

val has_isolated : t -> bool
(** True iff some vertex (either side) has degree 0. The paper's framework
    assumes no isolated vertices. *)

val sub_instance : t -> Wx_util.Bitset.t -> Wx_util.Bitset.t -> t * int array * int array
(** [sub_instance t ss ns] is the induced bipartite graph on S-subset [ss]
    and N-subset [ns], with maps from new to old indices on each side.
    Used by the recursive procedures of Appendix A. *)

val of_set_neighborhood : Graph.t -> Wx_util.Bitset.t -> t * int array * int array
(** [of_set_neighborhood g s] builds the paper's [G_S]: side S is the set
    [s], side N is [Γ⁻(s)], and edges are those of [g] between them (edges
    internal to S or N are dropped, as in Section 4.1). Returns the
    instance plus maps from S-index and N-index back to vertices of [g]. *)

val pp : Format.formatter -> t -> unit
