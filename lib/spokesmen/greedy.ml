module Bitset = Wx_util.Bitset
module Bipartite = Wx_graph.Bipartite

(* Incremental objective state: per-N coverage counts, the current number
   of uniquely covered vertices, and per-S marginal gains. A count c of
   N-vertex w contributes to each S-neighbor's add gain +1 at c = 0 and -1
   at c = 1, and to its remove gain -1 at c = 1 and +1 at c = 2, so the
   gains move only when a count crosses 0/1/2. *)
type state = {
  cnt : int array;
  mutable uniq : int;
  chosen : Bitset.t;
  add_gain : int array;
  remove_gain : int array;
}

let make_state t =
  let s = Bipartite.s_count t in
  {
    cnt = Array.make (Bipartite.n_count t) 0;
    uniq = 0;
    chosen = Bitset.create s;
    add_gain = Array.init s (Bipartite.deg_s t);
    remove_gain = Array.make s 0;
  }

let add_part c = match c with 0 -> 1 | 1 -> -1 | _ -> 0
let remove_part c = match c with 1 -> -1 | 2 -> 1 | _ -> 0

(* Move cnt.(w) from [c] to [c'] and shift its S-neighbors' gains. *)
let set_count t st w c c' =
  st.cnt.(w) <- c';
  if c <= 2 || c' <= 2 then begin
    let da = add_part c' - add_part c and dr = remove_part c' - remove_part c in
    let off = Bipartite.offsets_n t and adj = Bipartite.adjacency_n t in
    for i = off.(w) to off.(w + 1) - 1 do
      let x = adj.(i) in
      st.add_gain.(x) <- st.add_gain.(x) + da;
      st.remove_gain.(x) <- st.remove_gain.(x) + dr
    done
  end

let apply_add t st u =
  Bitset.add_inplace st.chosen u;
  let off = Bipartite.offsets_s t and adj = Bipartite.adjacency_s t in
  for i = off.(u) to off.(u + 1) - 1 do
    let w = adj.(i) in
    let c = st.cnt.(w) in
    (match c with 0 -> st.uniq <- st.uniq + 1 | 1 -> st.uniq <- st.uniq - 1 | _ -> ());
    set_count t st w c (c + 1)
  done

let apply_remove t st u =
  Bitset.remove_inplace st.chosen u;
  let off = Bipartite.offsets_s t and adj = Bipartite.adjacency_s t in
  for i = off.(u) to off.(u + 1) - 1 do
    let w = adj.(i) in
    let c = st.cnt.(w) in
    (match c with 1 -> st.uniq <- st.uniq - 1 | 2 -> st.uniq <- st.uniq + 1 | _ -> ());
    set_count t st w c (c - 1)
  done

let greedy_pass t st =
  let s = Bipartite.s_count t in
  let continue_ = ref true in
  while !continue_ do
    let best_u = ref (-1) and best_g = ref 0 in
    for u = 0 to s - 1 do
      if st.add_gain.(u) > !best_g && not (Bitset.mem st.chosen u) then begin
        best_g := st.add_gain.(u);
        best_u := u
      end
    done;
    if !best_u >= 0 then apply_add t st !best_u else continue_ := false
  done

(* Visits the chosen vertices in ascending order; removing u changes no
   membership ahead of it. *)
let removal_pass t st =
  let changed = ref false in
  for u = 0 to Bipartite.s_count t - 1 do
    if Bitset.mem st.chosen u && st.remove_gain.(u) > 0 then begin
      apply_remove t st u;
      changed := true
    end
  done;
  !changed

let solve t =
  let st = make_state t in
  greedy_pass t st;
  Solver.make t "greedy" st.chosen

let solve_with_removal t =
  let st = make_state t in
  greedy_pass t st;
  let continue_ = ref true in
  (* Alternate removal and add passes until neither changes anything; each
     accepted move strictly increases the objective, so this terminates. *)
  while !continue_ do
    let removed = removal_pass t st in
    let before = st.uniq in
    greedy_pass t st;
    continue_ := removed || st.uniq > before
  done;
  Solver.make t "greedy-local" st.chosen
