module Bitset = Wx_util.Bitset
module Graph = Wx_graph.Graph

let gamma g s =
  let out = Bitset.create (Graph.n g) in
  Bitset.iter (fun v -> Graph.iter_neighbors g v (Bitset.add_inplace out)) s;
  out

let gamma_minus g s =
  let out = gamma g s in
  Bitset.diff_inplace out s;
  out

let deg_in g v s =
  Graph.fold_neighbors g v (fun acc w -> if Bitset.mem s w then acc + 1 else acc) 0

(* Count, per vertex outside [s], how many neighbors it has in [s']; collect
   those with exactly one. Shared by gamma1 and gamma1_excluding. *)
let unique_outside g ~outside_of ~from =
  let n = Graph.n g in
  let cnt = Array.make n 0 in
  Bitset.iter
    (fun v ->
      Graph.iter_neighbors g v (fun w ->
          if not (Bitset.mem outside_of w) then cnt.(w) <- cnt.(w) + 1))
    from;
  let out = Bitset.create n in
  for w = 0 to n - 1 do
    if cnt.(w) = 1 then Bitset.add_inplace out w
  done;
  out

let gamma1 g s = unique_outside g ~outside_of:s ~from:s

let gamma1_excluding g s s' =
  if not (Bitset.subset s' s) then invalid_arg "Nbhd.gamma1_excluding: S' must be a subset of S";
  unique_outside g ~outside_of:s ~from:s'

let expansion_of_set g s =
  let k = Bitset.cardinal s in
  if k = 0 then nan else float_of_int (Bitset.cardinal (gamma_minus g s)) /. float_of_int k

let unique_expansion_of_set g s =
  let k = Bitset.cardinal s in
  if k = 0 then nan else float_of_int (Bitset.cardinal (gamma1 g s)) /. float_of_int k

module Inc = struct
  type t = {
    g : Graph.t;
    n : int;
    in_s : bool array;
    cnt : int array;  (* per-vertex count of neighbors inside S *)
    dirty : int array;  (* stack of vertices whose in_s/cnt may be nonzero *)
    on_dirty : bool array;
    mutable ndirty : int;
    mutable size : int;  (* |S| *)
    mutable boundary : int;  (* |Γ(S) \ S| *)
    mutable uniq : int;  (* |Γ¹(S)| *)
  }

  let create g =
    let n = Graph.n g in
    {
      g;
      n;
      in_s = Array.make n false;
      cnt = Array.make n 0;
      dirty = Array.make n 0;
      on_dirty = Array.make n false;
      ndirty = 0;
      size = 0;
      boundary = 0;
      uniq = 0;
    }

  let[@inline] touch t v =
    if not t.on_dirty.(v) then begin
      t.on_dirty.(v) <- true;
      t.dirty.(t.ndirty) <- v;
      t.ndirty <- t.ndirty + 1
    end

  let add t v =
    if t.in_s.(v) then invalid_arg "Nbhd.Inc.add: vertex already in S";
    touch t v;
    t.in_s.(v) <- true;
    t.size <- t.size + 1;
    (* v leaves the outside world: it no longer counts toward the boundary
       or the unique neighborhood, whatever its neighbor count. *)
    let cv = t.cnt.(v) in
    if cv > 0 then t.boundary <- t.boundary - 1;
    if cv = 1 then t.uniq <- t.uniq - 1;
    let offsets = Graph.offsets t.g and nbrs = Graph.adjacency t.g in
    for i = offsets.(v) to offsets.(v + 1) - 1 do
      let w = Array.unsafe_get nbrs i in
      touch t w;
      let c = t.cnt.(w) in
      t.cnt.(w) <- c + 1;
      if not t.in_s.(w) then
        if c = 0 then begin
          t.boundary <- t.boundary + 1;
          t.uniq <- t.uniq + 1
        end
        else if c = 1 then t.uniq <- t.uniq - 1
    done

  let remove t v =
    if not t.in_s.(v) then invalid_arg "Nbhd.Inc.remove: vertex not in S";
    t.in_s.(v) <- false;
    t.size <- t.size - 1;
    let offsets = Graph.offsets t.g and nbrs = Graph.adjacency t.g in
    for i = offsets.(v) to offsets.(v + 1) - 1 do
      let w = Array.unsafe_get nbrs i in
      let c = t.cnt.(w) in
      t.cnt.(w) <- c - 1;
      if not t.in_s.(w) then
        if c = 1 then begin
          t.boundary <- t.boundary - 1;
          t.uniq <- t.uniq - 1
        end
        else if c = 2 then t.uniq <- t.uniq + 1
    done;
    (* v rejoins the outside world and counts again if it has neighbors
       left in S. Every vertex reachable here was already touched by the
       matching [add], so the dirty list needs no update. *)
    let cv = t.cnt.(v) in
    if cv > 0 then t.boundary <- t.boundary + 1;
    if cv = 1 then t.uniq <- t.uniq + 1

  let reset t =
    for i = 0 to t.ndirty - 1 do
      let v = t.dirty.(i) in
      t.in_s.(v) <- false;
      t.cnt.(v) <- 0;
      t.on_dirty.(v) <- false
    done;
    t.ndirty <- 0;
    t.size <- 0;
    t.boundary <- 0;
    t.uniq <- 0

  let[@inline] cardinal t = t.size
  let[@inline] boundary t = t.boundary
  let[@inline] unique t = t.uniq
  let[@inline] mem t v = t.in_s.(v)
  let[@inline] deg_in t v = t.cnt.(v)

  let expansion t =
    if t.size = 0 then nan else float_of_int t.boundary /. float_of_int t.size

  let unique_expansion t =
    if t.size = 0 then nan else float_of_int t.uniq /. float_of_int t.size

  (* Branch-and-bound numerator floors. Both are monotone consequences of
     the arena's single-vertex deltas, so they hold for EVERY superset
     reachable by at most [budget] further [add]s — the soundness the
     pruned enumeration in Measure leans on. *)

  let[@inline] boundary_floor t ~budget =
    (* Adding one vertex removes at most itself from Γ⁻(S): neighbors only
       ever join the boundary when their count rises from 0. *)
    let b = t.boundary - budget in
    if b > 0 then b else 0

  let[@inline] unique_floor t ~budget ~max_add_degree =
    (* Adding vertex v can delete at most 1 + deg(v) members of Γ¹(S): v
       itself, plus each neighbor whose inside-count rises from 1 to 2.
       [max_add_degree] bounds deg(v) over the vertices still addable. *)
    let u = t.uniq - (budget * (1 + max_add_degree)) in
    if u > 0 then u else 0
end

module Bip = struct
  module Bipartite = Wx_graph.Bipartite

  let covered t s' =
    let out = Bitset.create (Bipartite.n_count t) in
    Bitset.iter (fun u -> Bipartite.iter_s t u (Bitset.add_inplace out)) s';
    out

  let counts t s' =
    let cnt = Array.make (Bipartite.n_count t) 0 in
    Bitset.iter (fun u -> Bipartite.iter_s t u (fun w -> cnt.(w) <- cnt.(w) + 1)) s';
    cnt

  let unique t s' =
    let cnt = counts t s' in
    let out = Bitset.create (Bipartite.n_count t) in
    Array.iteri (fun w c -> if c = 1 then Bitset.add_inplace out w) cnt;
    out

  let unique_count t s' =
    let cnt = counts t s' in
    Array.fold_left (fun acc c -> if c = 1 then acc + 1 else acc) 0 cnt

  let iter_gray t elts f =
    let k = Array.length elts in
    if k > 30 then invalid_arg "Nbhd.Bip.iter_gray: too many elements";
    let cnt = Array.make (Bipartite.n_count t) 0 in
    let cov = ref 0 and uniq = ref 0 in
    let buf = Bitset.create (Bipartite.s_count t) in
    let off = Bipartite.offsets_s t and adj = Bipartite.adjacency_s t in
    let flip u =
      (* Toggle S-vertex [u]; update per-N counts and both counters. *)
      if Bitset.mem buf u then begin
        Bitset.remove_inplace buf u;
        for i = off.(u) to off.(u + 1) - 1 do
          let w = adj.(i) in
          let c = cnt.(w) in
          if c = 1 then begin
            decr cov;
            decr uniq
          end
          else if c = 2 then incr uniq;
          cnt.(w) <- c - 1
        done
      end
      else begin
        Bitset.add_inplace buf u;
        for i = off.(u) to off.(u + 1) - 1 do
          let w = adj.(i) in
          let c = cnt.(w) in
          if c = 0 then begin
            incr cov;
            incr uniq
          end
          else if c = 1 then decr uniq;
          cnt.(w) <- c + 1
        done
      end
    in
    f buf !cov !uniq;
    let total = 1 lsl k in
    for i = 1 to total - 1 do
      let gray_prev = (i - 1) lxor ((i - 1) lsr 1) in
      let gray = i lxor (i lsr 1) in
      let changed = gray lxor gray_prev in
      let bit =
        let rec go b = if changed lsr b land 1 = 1 then b else go (b + 1) in
        go 0
      in
      flip elts.(bit);
      f buf !cov !uniq
    done
end
