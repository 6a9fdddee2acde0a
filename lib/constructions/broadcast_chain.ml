module Graph = Wx_graph.Graph
module Bipartite = Wx_graph.Bipartite
module Rng = Wx_util.Rng
module Floatx = Wx_util.Floatx

type t = {
  graph : Graph.t;
  root : int;
  relays : int array;
  copies : int;
  s : int;
  s_vertices : int array array;
  n_vertices : int array array;
}

let create_gen rng ~copies ~s bip =
  if copies < 1 then invalid_arg "Broadcast_chain.create: copies must be >= 1";
  let s_cnt = Bipartite.s_count bip and n_cnt = Bipartite.n_count bip in
  let per_copy = s_cnt + n_cnt in
  let total = 1 + (copies * per_copy) in
  let root = 0 in
  let s_base i = 1 + (i * per_copy) in
  let n_base i = s_base i + s_cnt in
  (* s_cnt root edges, copies·m core edges, (copies − 1)·s_cnt relay edges. *)
  let ends = Array.make (2 * copies * (s_cnt + Bipartite.m bip)) 0 in
  let e = ref 0 in
  let add u v =
    ends.(2 * !e) <- u;
    ends.((2 * !e) + 1) <- v;
    incr e
  in
  (* Root to all of S¹. *)
  for u = 0 to s_cnt - 1 do
    add root (s_base 0 + u)
  done;
  (* Core edges per copy. *)
  for i = 0 to copies - 1 do
    Bipartite.iter_edges bip (fun u w -> add (s_base i + u) (n_base i + w))
  done;
  (* Relays: rtᵢ sampled from Nⁱ; connected to all of Sⁱ⁺¹. *)
  let relays =
    Array.init copies (fun i -> n_base i + Rng.int rng n_cnt)
  in
  for i = 0 to copies - 2 do
    for u = 0 to s_cnt - 1 do
      add relays.(i) (s_base (i + 1) + u)
    done
  done;
  let graph = Graph.of_edge_array total ends in
  {
    graph;
    root;
    relays;
    copies;
    s;
    s_vertices = Array.init copies (fun i -> Array.init s_cnt (fun u -> s_base i + u));
    n_vertices = Array.init copies (fun i -> Array.init n_cnt (fun w -> n_base i + w));
  }

let create rng ~copies ~s =
  let core = Core_graph.create s in
  create_gen rng ~copies ~s (Core_graph.bip core)

let create_random rng ~copies ~s =
  (* Same shape as the core graph — |N| = s·log 2s, S-degree 2s − 1 — but
     neighbors drawn uniformly at random. *)
  let core = Core_graph.create s in
  let template = Core_graph.bip core in
  let n_cnt = Bipartite.n_count template in
  let deg = min ((2 * s) - 1) n_cnt in
  let ends = Array.make (2 * ((s * deg) + n_cnt)) 0 in
  let e = ref 0 in
  let add u w =
    ends.(2 * !e) <- u;
    ends.((2 * !e) + 1) <- w;
    incr e
  in
  let covered = Array.make n_cnt false in
  for u = 0 to s - 1 do
    Array.iter
      (fun w ->
        covered.(w) <- true;
        add u w)
      (Rng.sample_without_replacement rng n_cnt deg)
  done;
  (* Keep the layer isolated-free (the core graph has min degree 1): give
     each uncovered N-vertex one random S-neighbor. *)
  for w = 0 to n_cnt - 1 do
    if not covered.(w) then add (Rng.int rng s) w
  done;
  create_gen rng ~copies ~s (Bipartite.of_edge_array ~edges:!e ~s ~n:n_cnt ends)

let diameter_estimate t = (2 * t.copies) + 1
let total_vertices t = Graph.n t.graph

let paper_round_lb t =
  float_of_int t.copies *. Floatx.log2 (2.0 *. float_of_int t.s) /. 4.0
