module Bitset = Wx_util.Bitset
module Combi = Wx_util.Combi

let edges_within g s =
  let acc = ref 0 in
  Bitset.iter
    (fun v ->
      Graph.iter_neighbors g v (fun w -> if w > v && Bitset.mem s w then incr acc))
    s;
  !acc

let density_of_subset g s =
  let k = Bitset.cardinal s in
  if k <= 1 then 0.0 else float_of_int (edges_within g s) /. float_of_int (k - 1)

let avg_degree_of_subset g s =
  let k = Bitset.cardinal s in
  if k = 0 then 0.0 else 2.0 *. float_of_int (edges_within g s) /. float_of_int k

let exact g =
  let n = Graph.n g in
  if n > 20 then invalid_arg "Arboricity.exact: n too large (max 20)";
  if n <= 1 then 0
  else begin
    let best = ref 0 in
    Combi.iter_all_subsets n (fun mask ->
        (* Count members and internal edges straight off the mask. *)
        let k = ref 0 in
        for v = 0 to n - 1 do
          if mask lsr v land 1 = 1 then incr k
        done;
        if !k >= 2 then begin
          let e = ref 0 in
          Graph.iter_edges g (fun u v ->
              if mask lsr u land 1 = 1 && mask lsr v land 1 = 1 then incr e);
          let a = (!e + !k - 2) / (!k - 1) in
          if a > !best then best := a
        end);
    !best
  end

(* Min-degree peeling, lowest index first among equal degrees. A binary
   heap holds one key deg·n + v per degree a vertex has had. Degrees only
   fall, so a vertex's stale keys are larger than its current one and
   surface only after it is peeled, to be skipped. O(m log n). *)
let peel g =
  let n = Graph.n g in
  let deg = Array.init n (Graph.degree g) in
  let removed = Array.make n false in
  let order = Array.make n 0 in
  let degeneracy = ref 0 in
  let remaining_edges = Array.make n 0 in
  let remaining_vertices = Array.make n 0 in
  let m = ref (Graph.m g) in
  let heap = Wx_util.Pq.create_min () in
  let push v = Wx_util.Pq.push heap ((deg.(v) * n) + v) v in
  for v = 0 to n - 1 do
    push v
  done;
  let rec next () =
    match Wx_util.Pq.pop heap with
    | Some (_, v) when not removed.(v) -> v
    | Some _ -> next ()
    | None -> assert false
  in
  for step = 0 to n - 1 do
    let v = next () in
    remaining_edges.(step) <- !m;
    remaining_vertices.(step) <- n - step;
    degeneracy := max !degeneracy deg.(v);
    order.(step) <- v;
    removed.(v) <- true;
    Graph.iter_neighbors g v (fun w ->
        if not removed.(w) then begin
          deg.(w) <- deg.(w) - 1;
          decr m;
          push w
        end)
  done;
  (order, remaining_edges, remaining_vertices, !degeneracy)

let lower_bound_peeling g =
  if Graph.n g <= 1 then 0
  else begin
    let _, rem_e, rem_v, _ = peel g in
    let best = ref 0 in
    Array.iteri
      (fun i e ->
        let k = rem_v.(i) in
        if k >= 2 then begin
          let a = (e + k - 2) / (k - 1) in
          if a > !best then best := a
        end)
      rem_e;
    !best
  end

let degeneracy g =
  if Graph.n g = 0 then 0
  else begin
    let _, _, _, d = peel g in
    d
  end

let paper_lower_bound ~delta ~beta =
  let d = float_of_int delta in
  Float.min (d /. beta) (d *. beta)
