(** Two-sided bipartite graphs [(S, N, E)].

    Section 4 of the paper works entirely on the bipartite graph between a
    vertex set [S] and its external neighborhood [N = Γ⁻(S)]; this module is
    that representation. Side-[S] vertices and side-[N] vertices are indexed
    independently from 0, so the same integer means different vertices on
    different sides. *)

type t

val of_edge_array : ?edges:int -> s:int -> n:int -> int array -> t
(** [of_edge_array ~s ~n ends] reads edge [i] as S-vertex [ends.(2i)] to
    N-vertex [ends.(2i+1)]; [edges] (default [Array.length ends / 2])
    reads only the first [edges] pairs. Duplicates collapsed; range
    errors raise. O(s + n + m) by counting-sort transposes, with every row
    sorted ascending. *)

val of_edges : s:int -> n:int -> (int * int) list -> t
(** [of_edges ~s ~n edges] where each [(u, w)] connects S-vertex [u] to
    N-vertex [w]; the list form of {!of_edge_array}. *)

val s_count : t -> int
val n_count : t -> int
val m : t -> int

val deg_s : t -> int -> int
(** Degree of an S-vertex. *)

val deg_n : t -> int -> int
(** Degree of an N-vertex. *)

val neighbors_s : t -> int -> int array
(** N-side neighbors of an S-vertex (sorted; do not mutate). *)

val neighbors_n : t -> int -> int array

val max_deg_s : t -> int
val max_deg_n : t -> int

val delta_s : t -> float
(** Average degree of side S ([δ_S] in the paper: Σ deg(u,N)/|S|). *)

val delta_n : t -> float
(** Average degree of side N ([δ_N]). *)

val beta : t -> float
(** The instance's expansion measure [|N| / |S|] (the paper's normalization
    when N is exactly the neighborhood of S). *)

val mem_edge : t -> int -> int -> bool
(** [mem_edge t u w] with [u] on side S and [w] on side N. *)

val iter_edges : t -> (int -> int -> unit) -> unit

val has_isolated : t -> bool
(** True iff some vertex (either side) has degree 0. The paper's framework
    assumes no isolated vertices. *)

val sub_instance : t -> Wx_util.Bitset.t -> Wx_util.Bitset.t -> t * int array * int array
(** [sub_instance t ss ns] is the induced bipartite graph on S-subset [ss]
    and N-subset [ns], with maps from new to old indices on each side.
    Used by the recursive procedures of Appendix A. *)

val to_graph : t -> Graph.t * int array * int array
(** Flatten to an ordinary graph: S-vertices first ([0..s-1]), then
    N-vertices ([s..s+n-1]). Returns the graph and both index maps
    (S-index → graph vertex, N-index → graph vertex). *)

val of_set_neighborhood : Graph.t -> Wx_util.Bitset.t -> t * int array * int array
(** [of_set_neighborhood g s] builds the paper's [G_S]: side S is the set
    [s], side N is [Γ⁻(s)], and edges are those of [g] between them (edges
    internal to S or N are dropped, as in Section 4.1). Returns the
    instance plus maps from S-index and N-index back to vertices of [g]. *)

val pp : Format.formatter -> t -> unit
