module Bipartite = Wx_graph.Bipartite
module Bitset = Wx_util.Bitset

type t = { s : int; delta : int; beta : int; bip : Bipartite.t }

let create ~s ~delta ~beta =
  if not (2 * beta >= delta && beta <= delta) then
    invalid_arg "Gbad.create: need ∆/2 <= β <= ∆";
  if s < 3 then invalid_arg "Gbad.create: need s >= 3";
  if s * beta < 2 * delta then invalid_arg "Gbad.create: need s·β >= 2∆";
  let n = s * beta in
  (* v_i covers the cyclic window [i·β, i·β + ∆); consecutive windows
     overlap in ∆ − β positions. *)
  let ends = Array.make (2 * s * delta) 0 in
  for i = 0 to s - 1 do
    for r = 0 to delta - 1 do
      let e = (i * delta) + r in
      ends.(2 * e) <- i;
      ends.((2 * e) + 1) <- ((i * beta) + r) mod n
    done
  done;
  { s; delta; beta; bip = Bipartite.of_edge_array ~s ~n ends }

let bip t = t.bip
let s t = t.s
let delta t = t.delta
let beta t = t.beta
let predicted_beta_u t = (2 * t.beta) - t.delta

let predicted_wireless_lb t =
  Float.max (float_of_int (predicted_beta_u t)) (float_of_int t.delta /. 2.0)

let every_second t =
  let out = Bitset.create t.s in
  let i = ref 0 in
  while !i < t.s do
    Bitset.add_inplace out !i;
    i := !i + 2
  done;
  out

let remark_f t l =
  if l < 1 then invalid_arg "Gbad.remark_f";
  let fd = float_of_int t.delta and fb = float_of_int t.beta and fl = float_of_int l in
  (((2.0 -. fl) *. fd) +. (2.0 *. (fl -. 1.0) *. fb)) /. fl

let remark_g t l =
  if l < 1 then invalid_arg "Gbad.remark_g";
  let fd = float_of_int t.delta and fl = float_of_int l in
  if l mod 2 = 0 then fd /. 2.0 else (fl +. 1.0) *. fd /. (2.0 *. fl)
