(** Immutable undirected simple graphs.

    Vertices are [0..n-1]. The adjacency is stored compressed-sparse-row:
    two flat int arrays, {!offsets} (length n+1) and {!adjacency} (length
    2m), with row [v] at [adjacency.(offsets.(v) .. offsets.(v+1) - 1)]
    sorted ascending. Membership tests are O(log deg), and the radio engine
    and the expansion kernels walk the rows with no per-vertex pointer
    chase. Build graphs with {!of_edges} or {!of_edge_array}. *)

type t

val of_edges : int -> (int * int) list -> t
(** [of_edges n edges] builds the graph on [n] vertices in O(n + |edges|).
    Duplicate edges (in either orientation) are collapsed; a negative [n],
    self-loops and out-of-range endpoints raise [Invalid_argument]. A thin
    wrapper over {!of_edge_array}. *)

val of_edge_array : ?edges:int -> int -> int array -> t
(** [of_edge_array ?edges n ends] is {!of_edges} over the flat endpoint
    array [ends]: edge [i] joins [ends.(2i)] and [ends.(2i+1)], for
    [i < edges] (default: all of [ends], which must then have even
    length). Generators that draw endpoints into an array build through
    it with no per-edge tuple or list cell. [ends] is only read. Raises
    [Invalid_argument] as {!of_edges} does, and when [edges] is negative
    or needs more than [Array.length ends] endpoints. *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of edges. *)

val offsets : t -> int array
(** Row start per vertex, length [n + 1]; [offsets.(n) = 2m].
    {b Do not mutate} — it is the graph's own storage. *)

val adjacency : t -> int array
(** All rows packed back to back, length [2m]; row [v] is
    [offsets.(v) .. offsets.(v+1) - 1], strictly ascending.
    {b Do not mutate} — it is the graph's own storage. *)

val bytes : t -> int
(** Approximate heap footprint of {!offsets} and {!adjacency} in bytes. *)

val degree : t -> int -> int
val max_degree : t -> int
val min_degree : t -> int
val avg_degree : t -> float

val is_regular : t -> int option
(** [Some d] when every vertex has degree [d]. *)

val neighbors : t -> int -> int array
(** A fresh copy of row [v], sorted ascending. Allocates O(deg); hot loops
    walk {!offsets}/{!adjacency} or use {!iter_neighbors} instead. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

val mem_edge : t -> int -> int -> bool

val iter_edges : t -> (int -> int -> unit) -> unit
(** Each undirected edge visited once, with [u < v]. *)

val edges : t -> (int * int) list

val iter_vertices : t -> (int -> unit) -> unit

val induced : t -> Wx_util.Bitset.t -> t * int array
(** [induced g s] is the subgraph induced by vertex set [s], together with
    the map from new indices to original vertices. *)

val disjoint_union : t -> t -> t
(** Vertices of the second graph are shifted by [n first]. *)

val add_vertices_and_edges : t -> int -> (int * int) list -> t
(** [add_vertices_and_edges g k es] appends [k] fresh vertices
    [n g .. n g + k - 1] and adds edges [es] (which may touch old and new
    vertices). Used to plug construction gadgets on top of host expanders
    (Section 4.3.3). *)

val relabel : t -> int array -> t
(** [relabel g perm] renames vertex [v] to [perm.(v)]; [perm] must be a
    permutation of [0..n-1]. *)

val equal : t -> t -> bool
(** Structural equality (same n, same edge set). *)

val pp : Format.formatter -> t -> unit
(** Short description: ["graph(n=8, m=12, Δ=3)"]. *)

val pp_adjacency : Format.formatter -> t -> unit
(** Full adjacency dump, for debugging small graphs. *)
