module Bitset = Wx_util.Bitset

(* Each side in compressed sparse rows, the layout of [Graph.t]: row u of
   side S is [adjacency_s.(offsets_s.(u) .. offsets_s.(u + 1) - 1)], its
   N-neighbours ascending, and side N likewise. *)
type t = {
  offsets_s : int array;
  adjacency_s : int array;
  offsets_n : int array;
  adjacency_n : int array;
}

(* The instance on the given S rows, which must be sorted and free of
   repeats. The N rows are their transpose — walking u ascending leaves
   each sorted — written into [spent], a dead array of length at least m,
   so that no builder holds a third edge-sized array at once. *)
let make ~n offsets_s adjacency_s spent =
  let m = Array.length adjacency_s in
  let offsets_n = Array.make (n + 1) 0 in
  Array.iter (fun w -> offsets_n.(w + 1) <- offsets_n.(w + 1) + 1) adjacency_s;
  Rows.starts offsets_n;
  Rows.transpose ~cursor:(Array.sub offsets_n 0 n) offsets_s adjacency_s spent;
  let adjacency_n = if Array.length spent = m then spent else Array.sub spent 0 m in
  { offsets_s; adjacency_s; offsets_n; adjacency_n }

let of_rows ~n offsets_s adjacency_s =
  let s = Array.length offsets_s - 1 and m = Array.length adjacency_s in
  let malformed () = invalid_arg "Bipartite.of_rows: malformed rows" in
  if s < 0 || n < 0 || offsets_s.(0) <> 0 || offsets_s.(s) <> m then malformed ();
  for u = 0 to s - 1 do
    let lo = offsets_s.(u) and hi = offsets_s.(u + 1) in
    if lo > hi || hi > m then malformed ();
    for i = lo to hi - 1 do
      let w = adjacency_s.(i) in
      if w < 0 || w >= n || (i > lo && w <= adjacency_s.(i - 1)) then malformed ()
    done
  done;
  make ~n offsets_s adjacency_s (Array.make m 0)

(* O(s + n + m) and no comparison sort: scatter the S-endpoints into
   unsorted N rows, pack the repeats out of them, count the S rows from the
   packed N rows, transpose into S rows of the exact size — sorted — and
   transpose back for the N rows. *)
let of_edge_array ?edges ~s ~n ends =
  let who = "Bipartite.of_edge_array" in
  let k =
    match edges with
    | None when Array.length ends mod 2 = 0 -> Array.length ends / 2
    | Some k when k >= 0 && 2 * k <= Array.length ends -> k
    | _ -> invalid_arg (who ^ ": bad edge count")
  in
  if s < 0 || n < 0 then invalid_arg who;
  let offsets_s = Array.make (s + 1) 0 and by_n_offsets = Array.make (n + 1) 0 in
  for i = 0 to k - 1 do
    let u = ends.(2 * i) and w = ends.((2 * i) + 1) in
    if u < 0 || u >= s || w < 0 || w >= n then invalid_arg (who ^ ": endpoint out of range");
    by_n_offsets.(w + 1) <- by_n_offsets.(w + 1) + 1
  done;
  Rows.starts by_n_offsets;
  let by_n = Array.make k 0 in
  Rows.scatter ~cursor:(Array.sub by_n_offsets 0 n) ends k ~both:false by_n;
  let cursor = Array.make s (-1) in
  Rows.pack ~mark:cursor by_n_offsets by_n;
  let m = by_n_offsets.(n) in
  for i = 0 to m - 1 do
    offsets_s.(by_n.(i) + 1) <- offsets_s.(by_n.(i) + 1) + 1
  done;
  Rows.starts offsets_s;
  Array.blit offsets_s 0 cursor 0 s;
  let adjacency_s = Array.make m 0 in
  Rows.transpose ~cursor by_n_offsets by_n adjacency_s;
  make ~n offsets_s adjacency_s by_n

let s_count t = Array.length t.offsets_s - 1
let n_count t = Array.length t.offsets_n - 1
let m t = Array.length t.adjacency_s
let deg_s t u = t.offsets_s.(u + 1) - t.offsets_s.(u)
let deg_n t w = t.offsets_n.(w + 1) - t.offsets_n.(w)
let offsets_s t = t.offsets_s
let adjacency_s t = t.adjacency_s
let offsets_n t = t.offsets_n
let adjacency_n t = t.adjacency_n

let iter_s t u f =
  for i = t.offsets_s.(u) to t.offsets_s.(u + 1) - 1 do
    f t.adjacency_s.(i)
  done

let iter_n t w f =
  for i = t.offsets_n.(w) to t.offsets_n.(w + 1) - 1 do
    f t.adjacency_n.(i)
  done

let max_arr f k =
  let d = ref 0 in
  for i = 0 to k - 1 do
    d := max !d (f i)
  done;
  !d

let max_deg_s t = max_arr (deg_s t) (s_count t)
let max_deg_n t = max_arr (deg_n t) (n_count t)
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let delta_s t = ratio (m t) (s_count t)
let delta_n t = ratio (m t) (n_count t)
let beta t = ratio (n_count t) (s_count t)

let iter_edges t f =
  for u = 0 to s_count t - 1 do
    iter_s t u (f u)
  done

let has_isolated t =
  let rec go_s u = u < s_count t && (deg_s t u = 0 || go_s (u + 1)) in
  let rec go_n w = w < n_count t && (deg_n t w = 0 || go_n (w + 1)) in
  go_s 0 || go_n 0

(* The S rows [s_map] of the sorted rows [(offsets, adjacency)], each
   entry mapped through [n_back] — the inverse of [n_map] over a universe
   of [size] — and dropped where it maps to -1. [n_back] is increasing where
   it keeps an entry, so the rows stay sorted and free of repeats. *)
let filter offsets adjacency ~size s_map n_map =
  let n_back = Array.make size (-1) in
  Array.iteri (fun i w -> n_back.(w) <- i) n_map;
  let cap = Array.fold_left (fun acc u -> acc + offsets.(u + 1) - offsets.(u)) 0 s_map in
  let offsets_s = Array.make (Array.length s_map + 1) 0 and buf = Array.make cap 0 in
  let k = ref 0 in
  Array.iteri
    (fun i u ->
      for j = offsets.(u) to offsets.(u + 1) - 1 do
        let w = n_back.(adjacency.(j)) in
        if w >= 0 then begin
          buf.(!k) <- w;
          incr k
        end
      done;
      offsets_s.(i + 1) <- !k)
    s_map;
  (make ~n:(Array.length n_map) offsets_s (Array.sub buf 0 !k) buf, s_map, n_map)

let sub_instance t ss ns =
  filter t.offsets_s t.adjacency_s ~size:(n_count t) (Bitset.to_array ss) (Bitset.to_array ns)

let of_set_neighborhood g s =
  (* N = Γ⁻(S): external neighbors of S. *)
  let nb = Bitset.create (Graph.n g) in
  Bitset.iter
    (fun v -> Graph.iter_neighbors g v (fun w -> if not (Bitset.mem s w) then Bitset.add_inplace nb w))
    s;
  filter (Graph.offsets g) (Graph.adjacency g) ~size:(Graph.n g) (Bitset.to_array s)
    (Bitset.to_array nb)

let pp fmt t =
  Format.fprintf fmt "bipartite(|S|=%d, |N|=%d, m=%d, δS=%.2f, δN=%.2f)" (s_count t) (n_count t)
    (m t) (delta_s t) (delta_n t)
