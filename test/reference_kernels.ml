(* The straightforward versions of the bipartite build, the spokesmen
   solvers, the exact ordinary bipartite expansion, the two former Gray
   walks for the inner wireless maximum and the min-degree peel, kept as
   equivalence oracles for the incremental kernels in the library: a
   Hashtbl dedup and comparison sorts, live neighbour lists rebuilt every
   step, gains rescanned from scratch, a fresh covered set per subset,
   Gray walks that carry the subset as a bitset and copy it at each
   improvement, and a linear-scan peel. Each must agree with its library counterpart on every
   value, chosen set, witness and tie-break. *)

module Bitset = Wx_util.Bitset
module Bipartite = Wx_graph.Bipartite
module Graph = Wx_graph.Graph
module Nbhd = Wx_expansion.Nbhd

(* Row [u] of side S or N, read through the iterators. *)
let row_s t u = Common.bip_row Bipartite.iter_s t u
let row_n t w = Common.bip_row Bipartite.iter_n t w

(* Rows and m of the bipartite graph on [edges]: Hashtbl dedup, rows filled
   in list order, then sorted. Raises like [Bipartite.of_edge_array]. *)
let bipartite_rows ~s ~n edges =
  if s < 0 || n < 0 then invalid_arg "Bipartite.of_edge_array";
  let seen = Hashtbl.create (2 * List.length edges) in
  let ds = Array.make s 0 and dn = Array.make n 0 in
  let clean =
    List.filter
      (fun (u, w) ->
        if u < 0 || u >= s || w < 0 || w >= n then
          invalid_arg "Bipartite.of_edge_array: endpoint out of range";
        if Hashtbl.mem seen (u, w) then false
        else begin
          Hashtbl.add seen (u, w) ();
          ds.(u) <- ds.(u) + 1;
          dn.(w) <- dn.(w) + 1;
          true
        end)
      edges
  in
  let adj_s = Array.init s (fun u -> Array.make ds.(u) 0) in
  let adj_n = Array.init n (fun w -> Array.make dn.(w) 0) in
  let fs = Array.make s 0 and fn = Array.make n 0 in
  List.iter
    (fun (u, w) ->
      adj_s.(u).(fs.(u)) <- w;
      fs.(u) <- fs.(u) + 1;
      adj_n.(w).(fn.(w)) <- u;
      fn.(w) <- fn.(w) + 1)
    clean;
  Array.iter (fun a -> Array.sort compare a) adj_s;
  Array.iter (fun a -> Array.sort compare a) adj_n;
  (adj_s, adj_n, List.length clean)

(* Lemma A.1's procedure with Γ(w, Stmp) rebuilt as a list for every
   N-vertex at every step. Returns (s_uni, n_uni, steps). *)
let naive_run t =
  let s = Bipartite.s_count t and n = Bipartite.n_count t in
  let s_tmp = Bitset.full s and n_tmp = Bitset.full n in
  for w = 0 to n - 1 do
    if Bipartite.deg_n t w = 0 then Bitset.remove_inplace n_tmp w
  done;
  let s_uni = Bitset.create s and n_uni = Bitset.create n in
  let steps = ref 0 in
  let live_nbrs v = List.filter (Bitset.mem s_tmp) (Array.to_list (row_n t v)) in
  while not (Bitset.is_empty n_tmp) do
    incr steps;
    let v = ref (-1) and vdeg = ref max_int in
    Bitset.iter
      (fun w ->
        let d = List.length (live_nbrs w) in
        if d < !vdeg then begin
          v := w;
          vdeg := d
        end)
      n_tmp;
    let gv = live_nbrs !v in
    assert (gv <> []);
    let gv_set = Bitset.of_list s gv in
    let q'v = ref [] and q''v = ref [] in
    Bitset.iter
      (fun u ->
        let nbrs = live_nbrs u in
        if List.exists (Bitset.mem gv_set) nbrs then
          if nbrs = gv then q'v := u :: !q'v else q''v := u :: !q''v)
      n_tmp;
    let w = List.hd gv in
    List.iter (Bitset.remove_inplace s_tmp) gv;
    Bitset.add_inplace s_uni w;
    List.iter
      (fun u ->
        Bitset.remove_inplace n_tmp u;
        Bitset.add_inplace n_uni u)
      !q'v;
    List.iter
      (fun u -> if Array.mem w (row_n t u) then Bitset.remove_inplace n_tmp u)
      !q''v
  done;
  (s_uni, n_uni, !steps)

(* Procedure Partition with every gain rescanned at every step. Returns
   (s_uni, s_tmp, n_uni, n_many, n_tmp, steps). *)
let partition_run ?restrict_n t =
  let s = Bipartite.s_count t and n = Bipartite.n_count t in
  let n_tmp = match restrict_n with None -> Bitset.full n | Some r -> Bitset.copy r in
  for w = 0 to n - 1 do
    if Bipartite.deg_n t w = 0 && Bitset.mem n_tmp w then Bitset.remove_inplace n_tmp w
  done;
  let s_tmp = Bitset.full s and s_uni = Bitset.create s in
  let n_uni = Bitset.create n and n_many = Bitset.create n in
  let gain v =
    let nt = ref 0 and nu = ref 0 in
    Array.iter
      (fun w -> if Bitset.mem n_tmp w then incr nt else if Bitset.mem n_uni w then incr nu)
      (row_s t v);
    !nt - (2 * !nu)
  in
  let steps = ref 0 and continue_ = ref true in
  while !continue_ && not (Bitset.is_empty s_tmp) do
    let best_v = ref (-1) and best_g = ref min_int in
    Bitset.iter
      (fun v ->
        let g = gain v in
        if g > !best_g then begin
          best_g := g;
          best_v := v
        end)
      s_tmp;
    if !best_g <= 0 then continue_ := false
    else begin
      incr steps;
      let v = !best_v in
      Bitset.remove_inplace s_tmp v;
      Bitset.add_inplace s_uni v;
      Array.iter
        (fun w ->
          if Bitset.mem n_uni w then begin
            Bitset.remove_inplace n_uni w;
            Bitset.add_inplace n_many w
          end
          else if Bitset.mem n_tmp w then begin
            Bitset.remove_inplace n_tmp w;
            Bitset.add_inplace n_uni w
          end)
        (row_s t v)
    end
  done;
  (s_uni, s_tmp, n_uni, n_many, n_tmp, !steps)

(* Marginal-gain greedy with every gain refolded over the vertex's row. *)
module Greedy = struct
  type state = { cnt : int array; mutable uniq : int; chosen : Bitset.t }

  let gain_of_add t st u =
    Array.fold_left
      (fun acc w -> match st.cnt.(w) with 0 -> acc + 1 | 1 -> acc - 1 | _ -> acc)
      0 (row_s t u)

  let gain_of_remove t st u =
    Array.fold_left
      (fun acc w -> match st.cnt.(w) with 1 -> acc - 1 | 2 -> acc + 1 | _ -> acc)
      0 (row_s t u)

  let apply_add t st u =
    Bitset.add_inplace st.chosen u;
    Array.iter
      (fun w ->
        (match st.cnt.(w) with 0 -> st.uniq <- st.uniq + 1 | 1 -> st.uniq <- st.uniq - 1 | _ -> ());
        st.cnt.(w) <- st.cnt.(w) + 1)
      (row_s t u)

  let apply_remove t st u =
    Bitset.remove_inplace st.chosen u;
    Array.iter
      (fun w ->
        (match st.cnt.(w) with 1 -> st.uniq <- st.uniq - 1 | 2 -> st.uniq <- st.uniq + 1 | _ -> ());
        st.cnt.(w) <- st.cnt.(w) - 1)
      (row_s t u)

  let greedy_pass t st =
    let continue_ = ref true in
    while !continue_ do
      let best_u = ref (-1) and best_g = ref 0 in
      for u = 0 to Bipartite.s_count t - 1 do
        if not (Bitset.mem st.chosen u) then begin
          let g = gain_of_add t st u in
          if g > !best_g then begin
            best_g := g;
            best_u := u
          end
        end
      done;
      if !best_u >= 0 then apply_add t st !best_u else continue_ := false
    done

  let removal_pass t st =
    let changed = ref false in
    Bitset.iter
      (fun u ->
        if gain_of_remove t st u > 0 then begin
          apply_remove t st u;
          changed := true
        end)
      (Bitset.copy st.chosen);
    !changed

  let make t =
    { cnt = Array.make (Bipartite.n_count t) 0; uniq = 0; chosen = Bitset.create (Bipartite.s_count t) }

  let solve t =
    let st = make t in
    greedy_pass t st;
    st.chosen

  let solve_with_removal t =
    let st = make t in
    greedy_pass t st;
    let continue_ = ref true in
    while !continue_ do
      let removed = removal_pass t st in
      let before = st.uniq in
      greedy_pass t st;
      continue_ := removed || st.uniq > before
    done;
    st.chosen
end

(* Min of |covered(S')| / |S'| over the nonempty subsets of S in
   [Common.iter_subsets]' Gray order, covered set rebuilt per subset; the
   first strict minimum is the witness. *)
let ordinary_expansion_min t =
  let s = Bipartite.s_count t in
  let best = ref infinity and best_set = ref (Bitset.create s) in
  Common.iter_subsets (Bitset.full s) (fun s' ->
      let k = Bitset.cardinal s' in
      if k > 0 then begin
        let v = float_of_int (Bitset.cardinal (Nbhd.Bip.covered t s')) /. float_of_int k in
        if v < !best then begin
          best := v;
          best_set := Bitset.copy s'
        end
      end);
  (!best, !best_set)

(* max over S' ⊆ S of |Γ¹_S(S')| and its first maximiser in Gray order:
   the walk keeps S' as a bitset, tests every neighbour for membership in
   S, and copies S' at each strict improvement. *)
let max_unique_over_subsets g s =
  let n = Graph.n g in
  let elts = Bitset.to_array s in
  let k = Array.length elts in
  let cnt = Array.make n 0 and offsets = Graph.offsets g and nbrs = Graph.adjacency g in
  let uniq = ref 0 in
  let cur = Bitset.create n in
  let best = ref 0 in
  let best_set = ref (Bitset.create n) in
  let total = 1 lsl k in
  for i = 1 to total - 1 do
    let bit =
      let rec go b = if (i lsr b) land 1 = 1 then b else go (b + 1) in
      go 0
    in
    let u = elts.(bit) in
    let adding = ((i lxor (i lsr 1)) lsr bit) land 1 = 1 in
    let lo = offsets.(u) and hi = offsets.(u + 1) - 1 in
    if adding then begin
      Bitset.add_inplace cur u;
      for j = lo to hi do
        let w = nbrs.(j) in
        if not (Bitset.mem s w) then begin
          let c = cnt.(w) in
          if c = 0 then incr uniq else if c = 1 then decr uniq;
          cnt.(w) <- c + 1
        end
      done
    end
    else begin
      Bitset.remove_inplace cur u;
      for j = lo to hi do
        let w = nbrs.(j) in
        if not (Bitset.mem s w) then begin
          let c = cnt.(w) in
          if c = 1 then decr uniq else if c = 2 then incr uniq;
          cnt.(w) <- c - 1
        end
      done
    end;
    if !uniq > !best then begin
      best := !uniq;
      best_set := Bitset.copy cur
    end
  done;
  (!best, !best_set)

(* Every subset of the S-vertices [elts] in Gray order, empty set first,
   as a reused bitset buffer with its covered and unique counts. *)
let iter_gray t elts f =
  let k = Array.length elts in
  let cnt = Array.make (Bipartite.n_count t) 0 in
  let cov = ref 0 and uniq = ref 0 in
  let buf = Bitset.create (Bipartite.s_count t) in
  let off = Bipartite.offsets_s t and adj = Bipartite.adjacency_s t in
  let flip u =
    if Bitset.mem buf u then begin
      Bitset.remove_inplace buf u;
      for i = off.(u) to off.(u + 1) - 1 do
        let w = adj.(i) in
        let c = cnt.(w) in
        if c = 1 then begin
          decr cov;
          decr uniq
        end
        else if c = 2 then incr uniq;
        cnt.(w) <- c - 1
      done
    end
    else begin
      Bitset.add_inplace buf u;
      for i = off.(u) to off.(u + 1) - 1 do
        let w = adj.(i) in
        let c = cnt.(w) in
        if c = 0 then begin
          incr cov;
          incr uniq
        end
        else if c = 1 then decr uniq;
        cnt.(w) <- c + 1
      done
    end
  in
  f buf !cov !uniq;
  let total = 1 lsl k in
  for i = 1 to total - 1 do
    let gray_prev = (i - 1) lxor ((i - 1) lsr 1) in
    let gray = i lxor (i lsr 1) in
    let changed = gray lxor gray_prev in
    let bit =
      let rec go b = if changed lsr b land 1 = 1 then b else go (b + 1) in
      go 0
    in
    flip elts.(bit);
    f buf !cov !uniq
  done

(* Exact maximum unique coverage over the subsets of side S, first strict
   improvement in [iter_gray]'s order as the witness. *)
let exact_max_unique t =
  let s = Bipartite.s_count t in
  let best = ref 0 in
  let best_set = ref (Bitset.create s) in
  iter_gray t (Array.init s Fun.id) (fun s' _ count ->
      if count > !best then begin
        best := count;
        best_set := Bitset.copy s'
      end);
  (!best, !best_set)

(* Min-degree peel by linear scan, lowest index on ties. *)
let peel g =
  let n = Graph.n g in
  let deg = Array.init n (Graph.degree g) in
  let removed = Array.make n false in
  let order = Array.make n 0 and degeneracy = ref 0 in
  let remaining_edges = Array.make n 0 and remaining_vertices = Array.make n 0 in
  let m = ref (Graph.m g) in
  for step = 0 to n - 1 do
    let v = ref (-1) in
    for u = 0 to n - 1 do
      if (not removed.(u)) && (!v = -1 || deg.(u) < deg.(!v)) then v := u
    done;
    let v = !v in
    remaining_edges.(step) <- !m;
    remaining_vertices.(step) <- n - step;
    degeneracy := max !degeneracy deg.(v);
    order.(step) <- v;
    removed.(v) <- true;
    Graph.iter_neighbors g v (fun w ->
        if not removed.(w) then begin
          deg.(w) <- deg.(w) - 1;
          decr m
        end)
  done;
  (order, remaining_edges, remaining_vertices, !degeneracy)
