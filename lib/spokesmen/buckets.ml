module Bitset = Wx_util.Bitset
module Bipartite = Wx_graph.Bipartite
module Bounds = Wx_expansion.Bounds

let classes ?(c = Bounds.c_star) t =
  if c <= 1.0 then invalid_arg "Buckets.classes: c must be > 1";
  let tbl = Hashtbl.create 8 in
  for w = 0 to Bipartite.n_count t - 1 do
    let d = Bipartite.deg_n t w in
    if d >= 1 then begin
      (* Class i: degree in [c^{i-1}, c^i). d=1 lands in class 1. *)
      let i = 1 + int_of_float (Float.floor (log (float_of_int d) /. log c)) in
      let cur = try Hashtbl.find tbl i with Not_found -> [] in
      Hashtbl.replace tbl i (w :: cur)
    end
  done;
  let pairs = Hashtbl.fold (fun i ws acc -> (i, Array.of_list (List.rev ws)) :: acc) tbl [] in
  Array.of_list (List.sort compare pairs)

let largest_class ?c t =
  let cs = classes ?c t in
  if Array.length cs = 0 then invalid_arg "Buckets.largest_class: empty N side";
  Array.fold_left
    (fun (bi, bw) (i, ws) -> if Array.length ws > Array.length bw then (i, ws) else (bi, bw))
    cs.(0) cs

let solve_class t members =
  let n = Bipartite.n_count t in
  let restrict = Bitset.of_array n members in
  let st = Partition.run ~restrict_n:restrict t in
  Solver.make t "buckets" st.Partition.s_uni

let solve ?c t =
  let _, members = largest_class ?c t in
  solve_class t members

let solve_all_classes ?c t =
  let cs = classes ?c t in
  if Array.length cs = 0 then invalid_arg "Buckets.solve_all_classes: empty N side";
  Array.fold_left
    (fun acc (_, members) -> Solver.best acc (solve_class t members))
    (solve_class t (snd cs.(0)))
    (Array.sub cs 1 (Array.length cs - 1))
