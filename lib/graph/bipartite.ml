module Bitset = Wx_util.Bitset

type t = { s : int; n : int; m : int; adj_s : int array array; adj_n : int array array }

(* O(s + n + m) and no comparison sort, the counting-sort transpose of
   [Graph.of_edges] across the two sides: scatter the S-endpoints into N
   rows, walk w ascending and append w to the row of each of its
   S-neighbours — every S row comes out sorted, repeated edges adjacent —
   keep each S row's distinct entries, then walk u ascending to fill the
   N rows, sorted. *)
let build who ~s ~n ends k =
  if s < 0 || n < 0 then invalid_arg who;
  let n_off = Array.make (n + 1) 0 and s_off = Array.make (s + 1) 0 in
  for i = 0 to k - 1 do
    let u = ends.(2 * i) and w = ends.((2 * i) + 1) in
    if u < 0 || u >= s || w < 0 || w >= n then invalid_arg (who ^ ": endpoint out of range");
    n_off.(w + 1) <- n_off.(w + 1) + 1;
    s_off.(u + 1) <- s_off.(u + 1) + 1
  done;
  for w = 0 to n - 1 do
    n_off.(w + 1) <- n_off.(w + 1) + n_off.(w)
  done;
  for u = 0 to s - 1 do
    s_off.(u + 1) <- s_off.(u + 1) + s_off.(u)
  done;
  let by_n = Array.make k 0 in
  let cursor = Array.sub n_off 0 n in
  for i = 0 to k - 1 do
    let w = ends.((2 * i) + 1) in
    by_n.(cursor.(w)) <- ends.(2 * i);
    cursor.(w) <- cursor.(w) + 1
  done;
  let by_s = Array.make k 0 in
  let cursor = Array.sub s_off 0 s in
  for w = 0 to n - 1 do
    for i = n_off.(w) to n_off.(w + 1) - 1 do
      let u = by_n.(i) in
      by_s.(cursor.(u)) <- w;
      cursor.(u) <- cursor.(u) + 1
    done
  done;
  let dn = Array.make n 0 and m = ref 0 in
  let adj_s =
    Array.init s (fun u ->
        let lo = s_off.(u) and hi = s_off.(u + 1) in
        let len = ref 0 and prev = ref (-1) in
        for i = lo to hi - 1 do
          let w = by_s.(i) in
          if w <> !prev then begin
            by_s.(lo + !len) <- w;
            incr len;
            prev := w;
            dn.(w) <- dn.(w) + 1
          end
        done;
        m := !m + !len;
        Array.sub by_s lo !len)
  in
  let adj_n = Array.init n (fun w -> Array.make dn.(w) 0) in
  Array.fill dn 0 n 0;
  Array.iteri
    (fun u row ->
      Array.iter
        (fun w ->
          adj_n.(w).(dn.(w)) <- u;
          dn.(w) <- dn.(w) + 1)
        row)
    adj_s;
  { s; n; m = !m; adj_s; adj_n }

let of_edge_array ?edges ~s ~n ends =
  let k =
    match edges with
    | None when Array.length ends mod 2 = 0 -> Array.length ends / 2
    | Some k when k >= 0 && 2 * k <= Array.length ends -> k
    | _ -> invalid_arg "Bipartite.of_edge_array: bad edge count"
  in
  build "Bipartite.of_edge_array" ~s ~n ends k

let of_edges ~s ~n edges =
  let ends = Array.make (2 * List.length edges) 0 in
  List.iteri
    (fun i (u, w) ->
      ends.(2 * i) <- u;
      ends.((2 * i) + 1) <- w)
    edges;
  build "Bipartite.of_edges" ~s ~n ends (Array.length ends / 2)

let s_count t = t.s
let n_count t = t.n
let m t = t.m
let deg_s t u = Array.length t.adj_s.(u)
let deg_n t w = Array.length t.adj_n.(w)
let neighbors_s t u = t.adj_s.(u)
let neighbors_n t w = t.adj_n.(w)

let max_arr f k =
  let d = ref 0 in
  for i = 0 to k - 1 do
    d := max !d (f i)
  done;
  !d

let max_deg_s t = max_arr (deg_s t) t.s
let max_deg_n t = max_arr (deg_n t) t.n
let delta_s t = if t.s = 0 then 0.0 else float_of_int t.m /. float_of_int t.s
let delta_n t = if t.n = 0 then 0.0 else float_of_int t.m /. float_of_int t.n
let beta t = if t.s = 0 then 0.0 else float_of_int t.n /. float_of_int t.s

let mem_edge t u w =
  let a = t.adj_s.(u) in
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) = w then found := true else if a.(mid) < w then lo := mid + 1 else hi := mid - 1
  done;
  !found

let iter_edges t f =
  for u = 0 to t.s - 1 do
    Array.iter (fun w -> f u w) t.adj_s.(u)
  done

let has_isolated t =
  let rec go_s u = u < t.s && (deg_s t u = 0 || go_s (u + 1)) in
  let rec go_n w = w < t.n && (deg_n t w = 0 || go_n (w + 1)) in
  go_s 0 || go_n 0

let sub_instance t ss ns =
  let s_map = Bitset.to_array ss in
  let n_map = Bitset.to_array ns in
  let n_back = Array.make t.n (-1) in
  Array.iteri (fun i w -> n_back.(w) <- i) n_map;
  let ends = Array.make (2 * t.m) 0 and k = ref 0 in
  Array.iteri
    (fun i u ->
      Array.iter
        (fun w ->
          if n_back.(w) >= 0 then begin
            ends.(2 * !k) <- i;
            ends.((2 * !k) + 1) <- n_back.(w);
            incr k
          end)
        t.adj_s.(u))
    s_map;
  (of_edge_array ~edges:!k ~s:(Array.length s_map) ~n:(Array.length n_map) ends, s_map, n_map)

let to_graph t =
  let ends = Array.make (2 * t.m) 0 and k = ref 0 in
  iter_edges t (fun u w ->
      ends.(2 * !k) <- u;
      ends.((2 * !k) + 1) <- t.s + w;
      incr k);
  let g = Graph.of_edge_array (t.s + t.n) ends in
  (g, Array.init t.s (fun i -> i), Array.init t.n (fun i -> t.s + i))

let of_set_neighborhood g s =
  let n = Graph.n g in
  let in_s = s in
  (* N = Γ⁻(S): external neighbors of S. *)
  let nb = Bitset.create n in
  Bitset.iter
    (fun v -> Graph.iter_neighbors g v (fun w -> if not (Bitset.mem in_s w) then Bitset.add_inplace nb w))
    s;
  let s_map = Bitset.to_array s in
  let n_map = Bitset.to_array nb in
  let n_back = Array.make n (-1) in
  Array.iteri (fun i w -> n_back.(w) <- i) n_map;
  let k = Array.fold_left (fun acc v -> acc + Graph.degree g v) 0 s_map in
  let ends = Array.make (2 * k) 0 and k = ref 0 in
  Array.iteri
    (fun i v ->
      Graph.iter_neighbors g v (fun w ->
          if n_back.(w) >= 0 then begin
            ends.(2 * !k) <- i;
            ends.((2 * !k) + 1) <- n_back.(w);
            incr k
          end))
    s_map;
  (of_edge_array ~edges:!k ~s:(Array.length s_map) ~n:(Array.length n_map) ends, s_map, n_map)

let pp fmt t =
  Format.fprintf fmt "bipartite(|S|=%d, |N|=%d, m=%d, δS=%.2f, δN=%.2f)" t.s t.n t.m
    (delta_s t) (delta_n t)
