module Bitset = Wx_util.Bitset
module Bipartite = Wx_graph.Bipartite
module Rng = Wx_util.Rng
module Metrics = Wx_obs.Metrics

let m_bip_sets = Metrics.counter "expansion.bip_sets_scored"
let m_bip_rejected = Metrics.counter "expansion.bip_work_rejected"

exception Too_large of string

(* The Gray walk over the non-empty subsets of side-S vertices [elts]. *)
let walk_s t elts f =
  Nbhd.gray_walk ~offsets:(Bipartite.offsets_s t) ~adjacency:(Bipartite.adjacency_s t)
    (Array.make (Bipartite.n_count t) 0)
    elts (Array.length elts) f

let exact_max_unique ?(work_limit = 1 lsl 24) t =
  let s = Bipartite.s_count t in
  if s > 30 || 1 lsl s > work_limit then begin
    Metrics.incr m_bip_rejected;
    raise (Too_large (Printf.sprintf "Bip_measure.exact_max_unique: 2^%d subsets" s))
  end;
  let elts = Array.init s Fun.id in
  let best = ref 0 and best_i = ref 0 in
  walk_s t elts (fun i _ u ->
      if u > !best then begin
        best := u;
        best_i := i
      end);
  Metrics.add m_bip_sets (1 lsl s);
  (!best, Nbhd.gray_set s elts !best_i)

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

let ordinary_expansion_min_exact ?(work_limit = 1 lsl 24) t =
  let s = Bipartite.s_count t in
  if s > 30 || 1 lsl s > work_limit then
    raise (Too_large (Printf.sprintf "Bip_measure.ordinary_expansion_min_exact: 2^%d subsets" s));
  let elts = Array.init s Fun.id in
  let best = ref infinity and best_i = ref 0 in
  walk_s t elts (fun i cov _ ->
      let v = float_of_int cov /. float_of_int (Bitset.popcount_word (i lxor (i lsr 1))) in
      if v < !best then begin
        best := v;
        best_i := i
      end);
  (!best, Nbhd.gray_set s elts !best_i)

(* The first strict minimum of cov/|S'| over the structured candidates
   (each singleton, the full side) and then the random draws. *)
let ordinary_expansion_min_sampled rng ~samples t =
  let s = Bipartite.s_count t in
  let best = ref infinity in
  let best_set = ref (Bitset.create s) in
  let consider s' =
    let cov = Bitset.cardinal (Nbhd.Bip.covered t s') in
    let v = float_of_int cov /. float_of_int (Bitset.cardinal s') in
    if v < !best then begin
      best := v;
      best_set := s'
    end
  in
  for u = 0 to s - 1 do
    consider (Bitset.of_list s [ u ])
  done;
  consider (Bitset.full s);
  for _ = 1 to samples do
    let k = 1 + Rng.int rng s in
    consider (Bitset.random_of_universe rng s k)
  done;
  (!best, !best_set)
