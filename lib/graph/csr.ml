(* Compatibility alias for e2ebench/e2e.ml only: Graph.t is the CSR layout.
   No code outside e2ebench/ may use this module. *)

type t = Graph.t

let of_graph g = g
let n = Graph.n
let offsets = Graph.offsets
let neighbors = Graph.adjacency
let bytes = Graph.bytes
