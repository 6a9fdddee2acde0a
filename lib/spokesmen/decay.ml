module Bitset = Wx_util.Bitset
module Bipartite = Wx_graph.Bipartite
module Rng = Wx_util.Rng
module Nbhd = Wx_expansion.Nbhd
module Metrics = Wx_obs.Metrics

let m_samples = Metrics.counter "spokesmen.decay.samples"
let m_restarts = Metrics.counter "spokesmen.decay.restarts"

let bucket_of_degree d =
  if d < 1 then invalid_arg "Decay.bucket_of_degree";
  Wx_util.Floatx.log2i_floor d

let buckets t =
  let cap = 2.0 *. Bipartite.delta_n t in
  let tbl = Hashtbl.create 8 in
  for w = 0 to Bipartite.n_count t - 1 do
    let d = Bipartite.deg_n t w in
    if d >= 1 && float_of_int d <= cap then begin
      let j = bucket_of_degree d in
      let cur = try Hashtbl.find tbl j with Not_found -> [] in
      Hashtbl.replace tbl j (w :: cur)
    end
  done;
  let pairs = Hashtbl.fold (fun j ws acc -> (j, Array.of_list (List.rev ws)) :: acc) tbl [] in
  Array.of_list (List.sort compare pairs)

let largest_bucket t =
  let bs = buckets t in
  if Array.length bs = 0 then invalid_arg "Decay.largest_bucket: no eligible N vertices";
  Array.fold_left
    (fun (bj, bw) (j, ws) -> if Array.length ws > Array.length bw then (j, ws) else (bj, bw))
    bs.(0) bs

let sample_candidate rng t j =
  let s = Bipartite.s_count t in
  let p = 1.0 /. float_of_int (1 lsl j) in
  Bitset.random_subset rng (Bitset.full s) p

let solve_direct ?(reps = 32) ?(all_buckets = false) rng t =
  let s = Bipartite.s_count t in
  if s = 0 || Bipartite.n_count t = 0 then invalid_arg "Decay.solve_direct: empty side";
  let bs = buckets t in
  let candidates =
    if Array.length bs = 0 then [| 0 |]
    else if all_buckets then Array.map fst bs
    else [| fst (largest_bucket t) |]
  in
  let best = ref (Solver.make t "decay" (Bitset.create s)) in
  Array.iter
    (fun j ->
      Metrics.incr m_restarts;
      for _ = 1 to reps do
        Metrics.incr m_samples;
        let cand = sample_candidate rng t j in
        let r = Solver.make t "decay" cand in
        best := Solver.best !best r
      done)
    candidates;
  !best

let greedy_subcover t s' =
  let n = Bipartite.n_count t in
  let covered = Bitset.create n in
  let out = Bitset.create (Bipartite.s_count t) in
  let off = Bipartite.offsets_s t and adj = Bipartite.adjacency_s t in
  Bitset.iter
    (fun u ->
      let rec covers_new i =
        i < off.(u + 1) && ((not (Bitset.mem covered adj.(i))) || covers_new (i + 1))
      in
      if covers_new off.(u) then begin
        Bitset.add_inplace out u;
        Bipartite.iter_s t u (Bitset.add_inplace covered)
      end)
    s';
  out

let solve_reduced ?reps ?all_buckets rng t =
  let s = Bipartite.s_count t in
  if s = 0 || Bipartite.n_count t = 0 then invalid_arg "Decay.solve_reduced: empty side";
  (* S' = low-degree S vertices (deg ≤ 2δS). *)
  let cap = 2.0 *. Bipartite.delta_s t in
  let s' = Bitset.create s in
  for u = 0 to s - 1 do
    if float_of_int (Bipartite.deg_s t u) <= cap && Bipartite.deg_s t u >= 1 then
      Bitset.add_inplace s' u
  done;
  if Bitset.is_empty s' then Solver.make t "decay-reduced" (Bitset.create s)
  else begin
    let s'' = greedy_subcover t s' in
    let n' = Nbhd.Bip.covered t s'' in
    let sub, s_map, _ = Bipartite.sub_instance t s'' n' in
    if Bipartite.s_count sub = 0 || Bipartite.n_count sub = 0 then
      Solver.make t "decay-reduced" (Bitset.create s)
    else begin
      let r = solve_direct ?reps ?all_buckets rng sub in
      let lifted = Bitset.create s in
      Bitset.iter (fun i -> Bitset.add_inplace lifted s_map.(i)) r.chosen;
      Solver.make t "decay-reduced" lifted
    end
  end

let solve ?reps ?all_buckets rng t =
  if Bipartite.n_count t >= Bipartite.s_count t then solve_direct ?reps ?all_buckets rng t
  else begin
    let a = solve_reduced ?reps ?all_buckets rng t in
    let b = solve_direct ?reps ?all_buckets rng t in
    Solver.best a b
  end
