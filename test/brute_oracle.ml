(* Independent brute-force oracle for the exact measures β, βu, βw.

   Shares no code with the library's enumeration engine (no [Nbhd.Inc], no
   [Combi], no [Bitset.iter_subsets], no pruning): it walks every bitmask
   of the vertex set, scores it from per-vertex neighbour masks built off
   the edge list, and keeps the lexicographically smallest minimiser by
   comparing sorted element lists. Exponential on purpose; for n <= 12. *)

module Graph = Wx_graph.Graph

type measure = Beta | Beta_u | Beta_w

let popcount x =
  let rec go x c = if x = 0 then c else go (x land (x - 1)) (c + 1) in
  go x 0

(* Vertices outside [s] with at least [1] (or exactly one, [~exactly])
   neighbour in [s'] ⊆ [s]. *)
let count_outside nbrs ~exactly s s' =
  let c = ref 0 in
  Array.iteri
    (fun w m ->
      let d = popcount (m land s') in
      if s land (1 lsl w) = 0 && (d = 1 || ((not exactly) && d > 1)) then incr c)
    nbrs;
  !c

let numerator nbrs measure s =
  match measure with
  | Beta -> count_outside nbrs ~exactly:false s s
  | Beta_u -> count_outside nbrs ~exactly:true s s
  | Beta_w ->
      (* max over non-empty submasks s' of s, walked as (s' - 1) land s *)
      let rec go s' best =
        if s' = 0 then best else go ((s' - 1) land s) (max best (count_outside nbrs ~exactly:true s s'))
      in
      go s 0

(* [Some (value, sorted witness)] over non-empty sets of size <= n/2, or
   [None] when there is none. *)
let min_exact measure g =
  let n = Graph.n g in
  if n > 20 then invalid_arg "Brute_oracle.min_exact: n > 20";
  let nbrs = Array.make n 0 in
  Graph.iter_edges g (fun u v ->
      nbrs.(u) <- nbrs.(u) lor (1 lsl v);
      nbrs.(v) <- nbrs.(v) lor (1 lsl u));
  let best = ref None in
  for s = 1 to (1 lsl n) - 1 do
    let k = popcount s in
    if k <= n / 2 then begin
      let v = float_of_int (numerator nbrs measure s) /. float_of_int k in
      let w = List.filter (fun x -> s land (1 lsl x) <> 0) (List.init n Fun.id) in
      match !best with
      | Some (bv, bw) when bv < v || (bv = v && compare bw w <= 0) -> ()
      | _ -> best := Some (v, w)
    end
  done;
  !best
