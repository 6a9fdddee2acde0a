module Bitset = Wx_util.Bitset
module Bipartite = Wx_graph.Bipartite
module Rng = Wx_util.Rng
module Metrics = Wx_obs.Metrics

let m_bip_sets = Metrics.counter "expansion.bip_sets_scored"
let m_bip_rejected = Metrics.counter "expansion.bip_work_rejected"

exception Too_large of string

let exact_max_unique ?(work_limit = 1 lsl 24) t =
  let s = Bipartite.s_count t in
  if s > 30 || 1 lsl s > work_limit then begin
    Metrics.incr m_bip_rejected;
    raise (Too_large (Printf.sprintf "Bip_measure.exact_max_unique: 2^%d subsets" s))
  end;
  let elts = Array.init s (fun i -> i) in
  let best = ref 0 in
  let best_set = ref (Bitset.create s) in
  Nbhd.Bip.iter_gray t elts (fun s' _ count ->
      Metrics.incr m_bip_sets;
      if count > !best then begin
        best := count;
        best_set := Bitset.copy s'
      end);
  (!best, !best_set)

let sampled_max_unique rng ~samples t =
  let s = Bipartite.s_count t in
  let best = ref 0 in
  let best_set = ref (Bitset.create s) in
  let consider s' =
    let c = Nbhd.Bip.unique_count t s' in
    if c > !best then begin
      best := c;
      best_set := s'
    end
  in
  (* Always try the structured candidates: each singleton and the full side. *)
  for u = 0 to s - 1 do
    consider (Bitset.of_list s [ u ])
  done;
  consider (Bitset.full s);
  for _ = 1 to samples do
    let k = 1 + Rng.int rng s in
    consider (Bitset.random_of_universe rng s k)
  done;
  (!best, !best_set)

let wireless_expansion_exact ?work_limit t =
  let m, _ = exact_max_unique ?work_limit t in
  float_of_int m /. float_of_int (Bipartite.s_count t)

(* [iter_candidates consider] calls [consider s' cov] with [cov] the
   covered count of [s']; the first strict minimum of cov/|S'| wins. *)
let min_expansion_generic t iter_candidates =
  let s = Bipartite.s_count t in
  let best = ref infinity in
  let best_set = ref (Bitset.create s) in
  iter_candidates (fun s' cov ->
      let k = Bitset.cardinal s' in
      if k > 0 then begin
        let v = float_of_int cov /. float_of_int k in
        if v < !best then begin
          best := v;
          best_set := Bitset.copy s'
        end
      end);
  (!best, !best_set)

let ordinary_expansion_min_exact ?(work_limit = 1 lsl 24) t =
  let s = Bipartite.s_count t in
  if s > 30 || 1 lsl s > work_limit then
    raise (Too_large (Printf.sprintf "Bip_measure.ordinary_expansion_min_exact: 2^%d subsets" s));
  let elts = Array.init s (fun i -> i) in
  min_expansion_generic t (fun consider ->
      Nbhd.Bip.iter_gray t elts (fun s' cov _ -> consider s' cov))

let ordinary_expansion_min_sampled rng ~samples t =
  let s = Bipartite.s_count t in
  min_expansion_generic t (fun consider ->
      let consider s' = consider s' (Bitset.cardinal (Nbhd.Bip.covered t s')) in
      for u = 0 to s - 1 do
        consider (Bitset.of_list s [ u ])
      done;
      consider (Bitset.full s);
      for _ = 1 to samples do
        let k = 1 + Rng.int rng s in
        consider (Bitset.random_of_universe rng s k)
      done)
