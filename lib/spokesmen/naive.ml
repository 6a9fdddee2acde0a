module Bitset = Wx_util.Bitset
module Bipartite = Wx_graph.Bipartite

type trace = { s_uni : Bitset.t; n_uni : Bitset.t; steps : int }

let run t =
  let s = Bipartite.s_count t and n = Bipartite.n_count t in
  let off_s = Bipartite.offsets_s t and adj_s = Bipartite.adjacency_s t in
  let off_n = Bipartite.offsets_n t and adj_n = Bipartite.adjacency_n t in
  let s_tmp = Bitset.full s and n_tmp = Bitset.full n in
  (* live.(w) = |Γ(w, Stmp)|, decremented as S-vertices leave Stmp. *)
  let live = Array.init n (Bipartite.deg_n t) in
  let n_left = ref n in
  (* Isolated N-vertices can never be covered; exclude them up front (the
     paper's framework assumes minimum degree 1, so this only widens the
     procedure's domain — the γ/∆ guarantee then counts coverable N). *)
  for w = 0 to n - 1 do
    if live.(w) = 0 then begin
      Bitset.remove_inplace n_tmp w;
      decr n_left
    end
  done;
  let s_uni = Bitset.create s and n_uni = Bitset.create n in
  (* Γ(v, Stmp) in gv.(0 .. ng-1), ascending; Qv in qv.(0 .. nq-1). A
     vertex u joins Qv once per step (stamp.(u) = step) and hits.(u)
     counts its neighbours in Γ(v, Stmp). *)
  let gv = Array.make s 0 and qv = Array.make n 0 in
  let stamp = Array.make n 0 and hits = Array.make n 0 in
  (* The heap picks v ∈ Ntmp minimizing |Γ(v, Stmp)|, lowest index on
     ties. Invariant (I4) guarantees ≥ 1. *)
  let heap = Lazy_heap.create n ~key:(fun w -> (live.(w) * n) + w) in
  let in_play = Bitset.mem n_tmp in
  let steps = ref 0 in
  while !n_left > 0 do
    incr steps;
    let step = !steps in
    let v = Lazy_heap.top heap ~in_play in
    let ng = ref 0 in
    for i = off_n.(v) to off_n.(v + 1) - 1 do
      let x = adj_n.(i) in
      if Bitset.mem s_tmp x then begin
        gv.(!ng) <- x;
        incr ng
      end
    done;
    let ng = !ng in
    assert (ng > 0);
    (* Qv: N-vertices of Ntmp incident on Γ(v, Stmp). *)
    let nq = ref 0 in
    for i = 0 to ng - 1 do
      for j = off_s.(gv.(i)) to off_s.(gv.(i) + 1) - 1 do
        let u = adj_s.(j) in
        if Bitset.mem n_tmp u then begin
          if stamp.(u) <> step then begin
            stamp.(u) <- step;
            hits.(u) <- 0;
            qv.(!nq) <- u;
            incr nq
          end;
          hits.(u) <- hits.(u) + 1
        end
      done
    done;
    (* Promote one vertex w of Γ(v, Stmp); discard the others from Stmp. *)
    let w = gv.(0) in
    Bitset.add_inplace s_uni w;
    (* Q'v (same live neighborhood as v: all of it inside Γ(v, Stmp) and
       as large) moves to Nuni. *)
    for j = 0 to !nq - 1 do
      let u = qv.(j) in
      if hits.(u) = ng && live.(u) = ng then begin
        Bitset.remove_inplace n_tmp u;
        decr n_left;
        Bitset.add_inplace n_uni u
      end
    done;
    (* Q''v: the rest of Qv; its neighbors of w leave Ntmp entirely. Qv
       holds every Ntmp-neighbor of w, so these are the ones still there. *)
    for j = off_s.(w) to off_s.(w + 1) - 1 do
      let u = adj_s.(j) in
      if Bitset.mem n_tmp u then begin
        Bitset.remove_inplace n_tmp u;
        decr n_left
      end
    done;
    for i = 0 to ng - 1 do
      let x = gv.(i) in
      Bitset.remove_inplace s_tmp x;
      for j = off_s.(x) to off_s.(x + 1) - 1 do
        let y = adj_s.(j) in
        live.(y) <- live.(y) - 1;
        if in_play y then Lazy_heap.lowered heap y
      done
    done
  done;
  { s_uni; n_uni; steps = !steps }

let solve t =
  let tr = run t in
  Solver.make t "naive" tr.s_uni
