module Bitset = Wx_util.Bitset

(* Compressed sparse rows: row v is [adjacency.(offsets.(v) .. offsets.(v+1) - 1)],
   sorted ascending, so the whole graph is two flat int arrays. *)
type t = { n : int; m : int; offsets : int array; adjacency : int array }

(* O(n + m) and no comparison sort: count degrees (repeats included),
   scatter the half-edges into unsorted rows of [scratch], pack the repeats
   out of each row, and transpose the packed rows into [adjacency] — every
   row comes out sorted. The graph is symmetric, so each packed row's length
   is its vertex's final degree: [adjacency] is allocated at its exact size,
   and one cursor serves as scatter cursor, pack mark and transpose cursor.
   [who] names the caller in error messages. *)
let build who n ends k =
  if n < 0 then invalid_arg (who ^ ": negative n");
  let offsets = Array.make (n + 1) 0 in
  for i = 0 to k - 1 do
    let u = ends.(2 * i) and v = ends.((2 * i) + 1) in
    if u < 0 || u >= n || v < 0 || v >= n then invalid_arg (who ^ ": endpoint out of range");
    if u = v then invalid_arg (who ^ ": self-loop");
    offsets.(u + 1) <- offsets.(u + 1) + 1;
    offsets.(v + 1) <- offsets.(v + 1) + 1
  done;
  Rows.starts offsets;
  let cursor = Array.sub offsets 0 n in
  let scratch = Array.make offsets.(n) 0 in
  Rows.scatter ~cursor ends k ~both:true scratch;
  Array.fill cursor 0 n (-1);
  Rows.pack ~mark:cursor offsets scratch;
  Array.blit offsets 0 cursor 0 n;
  let adjacency = Array.make offsets.(n) 0 in
  Rows.transpose ~cursor offsets scratch adjacency;
  { n; m = offsets.(n) / 2; offsets; adjacency }

let of_edge_array ?edges n ends =
  let k =
    match edges with
    | None when Array.length ends mod 2 = 0 -> Array.length ends / 2
    | Some k when k >= 0 && 2 * k <= Array.length ends -> k
    | _ -> invalid_arg "Graph.of_edge_array: bad edge count"
  in
  build "Graph.of_edge_array" n ends k

let of_edges n edges =
  let ends = Array.make (2 * List.length edges) 0 in
  List.iteri
    (fun i (u, v) ->
      ends.(2 * i) <- u;
      ends.((2 * i) + 1) <- v)
    edges;
  build "Graph.of_edges" n ends (Array.length ends / 2)

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
