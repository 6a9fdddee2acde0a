module Bitset = Wx_util.Bitset
module Graph = Wx_graph.Graph
module Guard = Wx_util.Guard

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

(* Gray-code walk over the subsets of [elts.(0 .. len-1)]. Step [i]
   toggles the element at the lowest set bit of [i]; it is an add exactly
   when that bit is set in gray(i) = i lxor (i lsr 1). A row entry whose
   count starts at a sentinel >= 3 never crosses the 0/1/2 transitions,
   which is how callers exclude vertices without a membership test. *)
let gray_walk ~offsets ~adjacency cnt elts len f =
  if len > Guard.max_gray_bits then
    raise (Guard.Too_large "Nbhd.gray_walk: 2^len steps exceed the native-int ceiling");
  let covered = ref 0 and unique = ref 0 in
  for i = 1 to (1 lsl len) - 1 do
    let bit = ref 0 in
    while (i lsr !bit) land 1 = 0 do
      incr bit
    done;
    let u = elts.(!bit) in
    let lo = offsets.(u) and hi = offsets.(u + 1) - 1 in
    if ((i lxor (i lsr 1)) lsr !bit) land 1 = 1 then
      for j = lo to hi do
        let w = Array.unsafe_get adjacency j in
        let c = cnt.(w) in
        if c = 0 then begin
          incr covered;
          incr unique
        end
        else if c = 1 then decr unique;
        cnt.(w) <- c + 1
      done
    else
      for j = lo to hi do
        let w = Array.unsafe_get adjacency j in
        let c = cnt.(w) in
        if c = 1 then begin
          decr covered;
          decr unique
        end
        else if c = 2 then incr unique;
        cnt.(w) <- c - 1
      done;
    f i !covered !unique
  done;
  (* The walk ends at the singleton {elts.(len-1)}: zeroing its row
     restores every count the walk raised. *)
  if len > 0 then begin
    let last = elts.(len - 1) in
    for j = offsets.(last) to offsets.(last + 1) - 1 do
      cnt.(adjacency.(j)) <- 0
    done
  end

let gray_set universe elts i =
  let code = i lxor (i lsr 1) in
  let out = Bitset.create universe in
  Array.iteri (fun b v -> if (code lsr b) land 1 = 1 then Bitset.add_inplace out v) elts;
  out

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
end
