(** Plain-text graph serialization.

    Format: first non-comment line is [n m]; each following line one edge
    [u v]. Lines starting with [#] are comments. This is the DIMACS-lite
    edge-list convention most graph tooling reads, so instances can move
    between this library, the CLI, and external tools. *)

val max_count : int
(** [2^24]: the largest vertex, side or edge count a header may name. *)

val to_string : Graph.t -> string

val of_string : string -> Graph.t
(** Raises [Failure] with a line-numbered message on malformed input: a
    header count that is negative or above {!max_count} (checked before
    anything is allocated), an endpoint out of range, a self-loop, or an
    edge count that disagrees with the header. Raises nothing else. *)

val save : Graph.t -> string -> unit
(** [save g path]. *)

val load : string -> Graph.t

val bipartite_to_string : Bipartite.t -> string
(** First line [s n m]; then [u w] edges with [u] on side S. *)

val bipartite_of_string : string -> Bipartite.t
(** Raises [Failure] like {!of_string}: a negative or oversized count, an
    endpoint outside [[0, s)] or [[0, n)], or an edge count that disagrees
    with the header. *)

val to_dot : ?highlight:Wx_util.Bitset.t -> Graph.t -> string
(** Graphviz DOT output; [highlight] fills the given vertices — handy for
    eyeballing expansion witnesses. *)
