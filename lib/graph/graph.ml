module Bitset = Wx_util.Bitset

(* Compressed sparse rows: row v is [adjacency.(offsets.(v) .. offsets.(v+1) - 1)],
   sorted ascending, so the whole graph is two flat int arrays. *)
type t = { n : int; m : int; offsets : int array; adjacency : int array }

(* O(n + m) and no comparison sort: count degrees (repeats included),
   scatter the half-edges into unsorted rows of [scratch], then walk v
   ascending and append v to the row of each of its neighbours — every row
   of [adjacency] comes out sorted — and finally drop adjacent duplicates
   in one compaction pass. *)
let of_edges n edges =
  if n < 0 then invalid_arg "Graph.of_edges: negative n";
  let offsets = Array.make (n + 1) 0 in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.of_edges: endpoint out of range";
      if u = v then invalid_arg "Graph.of_edges: self-loop";
      offsets.(u + 1) <- offsets.(u + 1) + 1;
      offsets.(v + 1) <- offsets.(v + 1) + 1)
    edges;
  for v = 0 to n - 1 do
    offsets.(v + 1) <- offsets.(v + 1) + offsets.(v)
  done;
  let len = offsets.(n) in
  let cursor = Array.sub offsets 0 n in
  let scratch = Array.make len 0 in
  let push row x dst =
    dst.(cursor.(row)) <- x;
    cursor.(row) <- cursor.(row) + 1
  in
  List.iter
    (fun (u, v) ->
      push u v scratch;
      push v u scratch)
    edges;
  Array.blit offsets 0 cursor 0 n;
  let adjacency = Array.make len 0 in
  for v = 0 to n - 1 do
    for i = offsets.(v) to offsets.(v + 1) - 1 do
      push scratch.(i) v adjacency
    done
  done;
  let k = ref 0 and start = ref 0 in
  for v = 0 to n - 1 do
    let stop = offsets.(v + 1) and prev = ref (-1) in
    for i = !start to stop - 1 do
      let w = adjacency.(i) in
      if w <> !prev then begin
        adjacency.(!k) <- w;
        incr k;
        prev := w
      end
    done;
    start := stop;
    offsets.(v + 1) <- !k
  done;
  let adjacency = if !k = len then adjacency else Array.sub adjacency 0 !k in
  { n; m = !k / 2; offsets; adjacency }

let n g = g.n
let m g = g.m
let offsets g = g.offsets
let adjacency g = g.adjacency
let degree g v = g.offsets.(v + 1) - g.offsets.(v)

(* Both payload arrays plus their headers; ignores the record itself. *)
let bytes g = (Array.length g.offsets + Array.length g.adjacency + 2) * (Sys.word_size / 8)

let max_degree g =
  let d = ref 0 in
  for v = 0 to g.n - 1 do
    d := max !d (degree g v)
  done;
  !d

let min_degree g =
  if g.n = 0 then 0
  else begin
    let d = ref max_int in
    for v = 0 to g.n - 1 do
      d := min !d (degree g v)
    done;
    !d
  end

let avg_degree g = if g.n = 0 then 0.0 else 2.0 *. float_of_int g.m /. float_of_int g.n

let is_regular g =
  if g.n = 0 then Some 0
  else begin
    let d = degree g 0 in
    let rec go v = if v >= g.n then Some d else if degree g v = d then go (v + 1) else None in
    go 1
  end

let neighbors g v = Array.sub g.adjacency g.offsets.(v) (degree g v)

let iter_neighbors g v f =
  for i = g.offsets.(v) to g.offsets.(v + 1) - 1 do
    f g.adjacency.(i)
  done

let fold_neighbors g v f init =
  let acc = ref init in
  for i = g.offsets.(v) to g.offsets.(v + 1) - 1 do
    acc := f !acc g.adjacency.(i)
  done;
  !acc

let mem_edge g u v =
  if u < 0 || u >= g.n || v < 0 || v >= g.n then false
  else begin
    let a = g.adjacency in
    (* Binary search in the sorted row. *)
    let lo = ref g.offsets.(u) and hi = ref (g.offsets.(u + 1) - 1) in
    let found = ref false in
    while (not !found) && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if a.(mid) = v then found := true
      else if a.(mid) < v then lo := mid + 1
      else hi := mid - 1
    done;
    !found
  end

let iter_edges g f =
  for u = 0 to g.n - 1 do
    iter_neighbors g u (fun v -> if u < v then f u v)
  done

let edges g =
  let acc = ref [] in
  iter_edges g (fun u v -> acc := (u, v) :: !acc);
  List.rev !acc

let iter_vertices g f =
  for v = 0 to g.n - 1 do
    f v
  done

let induced g s =
  let keep = Bitset.to_array s in
  let k = Array.length keep in
  let back = Array.make g.n (-1) in
  Array.iteri (fun i v -> back.(v) <- i) keep;
  let es = ref [] in
  Array.iteri
    (fun i v ->
      iter_neighbors g v (fun w -> if back.(w) >= 0 && back.(w) > i then es := (i, back.(w)) :: !es))
    keep;
  (of_edges k !es, keep)

let disjoint_union a b =
  let shift = a.n in
  let es = edges a @ List.map (fun (u, v) -> (u + shift, v + shift)) (edges b) in
  of_edges (a.n + b.n) es

let add_vertices_and_edges g k es =
  let n' = g.n + k in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n' || v < 0 || v >= n' then
        invalid_arg "Graph.add_vertices_and_edges: endpoint out of range")
    es;
  of_edges n' (edges g @ es)

let relabel g perm =
  if Array.length perm <> g.n then invalid_arg "Graph.relabel: bad permutation length";
  let seen = Array.make g.n false in
  Array.iter
    (fun p ->
      if p < 0 || p >= g.n || seen.(p) then invalid_arg "Graph.relabel: not a permutation";
      seen.(p) <- true)
    perm;
  of_edges g.n (List.map (fun (u, v) -> (perm.(u), perm.(v))) (edges g))

let equal a b = a.n = b.n && a.m = b.m && a.offsets = b.offsets && a.adjacency = b.adjacency

let pp fmt g = Format.fprintf fmt "graph(n=%d, m=%d, Δ=%d)" g.n g.m (max_degree g)

let pp_adjacency fmt g =
  pp fmt g;
  Format.fprintf fmt "@.";
  for v = 0 to g.n - 1 do
    Format.fprintf fmt "  %d:" v;
    iter_neighbors g v (fun w -> Format.fprintf fmt " %d" w);
    Format.fprintf fmt "@."
  done
