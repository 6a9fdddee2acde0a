(** Compatibility alias kept only for [e2ebench/e2e.ml], the frozen benchmark
    source, which still names [Csr]: {!Graph.t} is itself the CSR layout,
    [of_graph] is the identity and [neighbors] is {!Graph.adjacency}. No
    code outside [e2ebench/] may use this module. *)

type t = Graph.t

val of_graph : Graph.t -> t
val n : t -> int
val offsets : t -> int array
val neighbors : t -> int array
val bytes : t -> int
