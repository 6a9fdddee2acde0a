module Bitset = Wx_util.Bitset
module Bipartite = Wx_graph.Bipartite
module Metrics = Wx_obs.Metrics

let m_steps = Metrics.counter "spokesmen.partition.steps"
let m_runs = Metrics.counter "spokesmen.partition.runs"

type state = {
  s_uni : Bitset.t;
  s_tmp : Bitset.t;
  n_uni : Bitset.t;
  n_many : Bitset.t;
  n_tmp : Bitset.t;
  steps : int;
}

let gain_of t ~n_tmp ~n_uni v =
  let off = Bipartite.offsets_s t and adj = Bipartite.adjacency_s t in
  let nt = ref 0 and nu = ref 0 in
  for i = off.(v) to off.(v + 1) - 1 do
    let w = adj.(i) in
    if Bitset.mem n_tmp w then incr nt else if Bitset.mem n_uni w then incr nu
  done;
  !nt - (2 * !nu)

let run ?restrict_n t =
  let s = Bipartite.s_count t and n = Bipartite.n_count t in
  let off_s = Bipartite.offsets_s t and adj_s = Bipartite.adjacency_s t in
  let off_n = Bipartite.offsets_n t and adj_n = Bipartite.adjacency_n t in
  let n_tmp =
    match restrict_n with
    | None -> Bitset.full n
    | Some r -> Bitset.copy r
  in
  (* Drop isolated N-vertices up front: they can never be covered. *)
  for w = 0 to n - 1 do
    if Bipartite.deg_n t w = 0 && Bitset.mem n_tmp w then Bitset.remove_inplace n_tmp w
  done;
  let s_tmp = Bitset.full s in
  let s_uni = Bitset.create s in
  let n_uni = Bitset.create n and n_many = Bitset.create n in
  (* gains.(v) = gain v, shifted by [d] on each S-neighbor of an N-vertex
     that changes class: Ntmp -> Nuni costs 1 + 2, Nuni -> Nmany gives 2
     back. The heap picks the maximum gain, lowest index on ties. *)
  let gains = Array.init s (fun v -> gain_of t ~n_tmp ~n_uni v) in
  let heap = Lazy_heap.create s ~key:(fun v -> (-gains.(v) * s) + v) in
  let in_play = Bitset.mem s_tmp in
  let shift w d =
    for i = off_n.(w) to off_n.(w + 1) - 1 do
      let x = adj_n.(i) in
      gains.(x) <- gains.(x) + d;
      if d > 0 && in_play x then Lazy_heap.lowered heap x
    done
  in
  let steps = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let v = Lazy_heap.top heap ~in_play in
    if v < 0 || gains.(v) <= 0 then continue_ := false
    else begin
      incr steps;
      Bitset.remove_inplace s_tmp v;
      Bitset.add_inplace s_uni v;
      for i = off_s.(v) to off_s.(v + 1) - 1 do
        let w = adj_s.(i) in
        if Bitset.mem n_uni w then begin
          (* Preserve (P1): w now has two Suni neighbors — demote. *)
          Bitset.remove_inplace n_uni w;
          Bitset.add_inplace n_many w;
          shift w 2
        end
        else if Bitset.mem n_tmp w then begin
          Bitset.remove_inplace n_tmp w;
          Bitset.add_inplace n_uni w;
          shift w (-3)
        end
      done
    end
  done;
  Metrics.incr m_runs;
  Metrics.add m_steps !steps;
  { s_uni; s_tmp; n_uni; n_many; n_tmp; steps = !steps }

let gain t st v = gain_of t ~n_tmp:st.n_tmp ~n_uni:st.n_uni v

let count_edges t ~from_s ~to_n =
  let acc = ref 0 in
  Bitset.iter
    (fun v -> Bipartite.iter_s t v (fun w -> if Bitset.mem to_n w then incr acc))
    from_s;
  !acc

let edges_tmp t st = count_edges t ~from_s:st.s_tmp ~to_n:st.n_tmp
let edges_uni t st = count_edges t ~from_s:st.s_tmp ~to_n:st.n_uni

let check_conditions t st =
  let p1 =
    Bitset.for_all
      (fun w ->
        let c = ref 0 in
        Bipartite.iter_n t w (fun u -> if Bitset.mem st.s_uni u then incr c);
        !c = 1)
      st.n_uni
  in
  let p2 =
    Bitset.for_all
      (fun w ->
        let in_tmp = ref false and in_uni = ref false in
        Bipartite.iter_n t w (fun u ->
            if Bitset.mem st.s_tmp u then in_tmp := true;
            if Bitset.mem st.s_uni u then in_uni := true);
        !in_tmp && not !in_uni)
      st.n_tmp
  in
  let p3 = Bitset.cardinal st.n_uni >= Bitset.cardinal st.n_many in
  let p4 = Bitset.is_empty st.n_tmp || edges_tmp t st <= 2 * edges_uni t st in
  [ ("P1", p1); ("P2", p2); ("P3", p3); ("P4", p4) ]

let solve t =
  let st = run t in
  Solver.make t "partition" st.s_uni

let solve_degree_capped t =
  let n = Bipartite.n_count t in
  let cap = 2.0 *. Bipartite.delta_n t in
  let restrict = Bitset.create n in
  for w = 0 to n - 1 do
    if float_of_int (Bipartite.deg_n t w) <= cap then Bitset.add_inplace restrict w
  done;
  let st = run ~restrict_n:restrict t in
  Solver.make t "partition-capped" st.s_uni

let solve_recursive ?(max_depth = 10_000) t =
  (* Returns the chosen subset (indices of t's S side). *)
  let rec go depth t =
    let st = run t in
    if depth >= max_depth || Bitset.is_empty st.n_tmp || Bitset.is_empty st.s_tmp then st.s_uni
    else begin
      let sub, s_map, _ = Bipartite.sub_instance t st.s_tmp st.n_tmp in
      if Bipartite.n_count sub = 0 || Bipartite.s_count sub = 0 then st.s_uni
      else begin
        let inner = go (depth + 1) sub in
        let lifted = Bitset.create (Bipartite.s_count t) in
        Bitset.iter (fun i -> Bitset.add_inplace lifted s_map.(i)) inner;
        (* Keep whichever branch covers more on this instance. *)
        let a = Solver.evaluate t st.s_uni and b = Solver.evaluate t lifted in
        if b > a then lifted else st.s_uni
      end
    end
  in
  Solver.make t "partition-recursive" (go 0 t)

let solve_threshold ~t_param t =
  if t_param <= 1.0 then invalid_arg "Partition.solve_threshold: t must be > 1";
  let n = Bipartite.n_count t in
  let cap = t_param *. Bipartite.delta_n t in
  let restrict = Bitset.create n in
  for w = 0 to n - 1 do
    if float_of_int (Bipartite.deg_n t w) <= cap then Bitset.add_inplace restrict w
  done;
  let st = run ~restrict_n:restrict t in
  Solver.make t (Printf.sprintf "partition-t%.1f" t_param) st.s_uni
