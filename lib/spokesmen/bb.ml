module Bitset = Wx_util.Bitset
module Bipartite = Wx_graph.Bipartite
module Metrics = Wx_obs.Metrics

let m_nodes = Metrics.counter "spokesmen.bb.nodes"
let m_tightenings = Metrics.counter "spokesmen.bb.tightenings"
let m_prunes = Metrics.counter "spokesmen.bb.prunes"
let m_exhausted = Metrics.counter "spokesmen.bb.budget_exhausted"

type outcome = Proved_optimal | Budget_exhausted

let solve ?(node_limit = 20_000_000) t =
  let s = Bipartite.s_count t and n = Bipartite.n_count t in
  let off = Bipartite.offsets_s t and adj = Bipartite.adjacency_s t in
  (* Order: high degree first tends to fix the influential vertices early. *)
  let order = Array.init s (fun i -> i) in
  Array.sort (fun a b -> compare (Bipartite.deg_s t b) (Bipartite.deg_s t a)) order;
  let cnt = Array.make n 0 in
  (* remdeg.(w): neighbors of w among still-undecided S vertices. *)
  let remdeg = Array.make n 0 in
  for w = 0 to n - 1 do
    remdeg.(w) <- Bipartite.deg_n t w
  done;
  let uniq = ref 0 in
  (* potential: N-vertices currently at count 0 that some undecided vertex
     could still cover. The admissible bound is uniq + potential. *)
  let potential = ref 0 in
  for w = 0 to n - 1 do
    if remdeg.(w) > 0 then incr potential
  done;
  let chosen = Bitset.create s in
  let best = ref (-1) in
  let best_set = ref (Bitset.create s) in
  let nodes = ref 0 in
  let exhausted = ref false in
  let add u =
    for i = off.(u) to off.(u + 1) - 1 do
      let w = adj.(i) in
      (match cnt.(w) with
      | 0 ->
          incr uniq;
          if remdeg.(w) > 0 then decr potential
          (* covered now; no longer counts as reachable-zero *)
      | 1 -> decr uniq
      | _ -> ());
      cnt.(w) <- cnt.(w) + 1
    done
  in
  let undo_add u =
    for i = off.(u) to off.(u + 1) - 1 do
      let w = adj.(i) in
      cnt.(w) <- cnt.(w) - 1;
      match cnt.(w) with
      | 0 ->
          decr uniq;
          if remdeg.(w) > 0 then incr potential
      | 1 -> incr uniq
      | _ -> ()
    done
  in
  let retire u =
    (* u becomes decided: its neighbors lose one remaining degree. *)
    for i = off.(u) to off.(u + 1) - 1 do
      let w = adj.(i) in
      remdeg.(w) <- remdeg.(w) - 1;
      if remdeg.(w) = 0 && cnt.(w) = 0 then decr potential
    done
  in
  let unretire u =
    for i = off.(u) to off.(u + 1) - 1 do
      let w = adj.(i) in
      if remdeg.(w) = 0 && cnt.(w) = 0 then incr potential;
      remdeg.(w) <- remdeg.(w) + 1
    done
  in
  let record () =
    if !uniq > !best then begin
      Metrics.incr m_tightenings;
      best := !uniq;
      best_set := Bitset.copy chosen
    end
  in
  let rec go i =
    incr nodes;
    Metrics.incr m_nodes;
    if !nodes > node_limit then exhausted := true
    else begin
      record ();
      if i < s && not !exhausted then begin
        if !uniq + !potential <= !best then Metrics.incr m_prunes;
        if !uniq + !potential > !best then begin
          let u = order.(i) in
          retire u;
          (* Include branch first (greedy bias). *)
          add u;
          Bitset.add_inplace chosen u;
          go (i + 1);
          Bitset.remove_inplace chosen u;
          undo_add u;
          (* Exclude branch. *)
          if !uniq + !potential > !best && not !exhausted then go (i + 1);
          unretire u
        end
      end
    end
  in
  go 0;
  if !exhausted then Metrics.incr m_exhausted;
  let result = Solver.make t "branch-and-bound" !best_set in
  (result, if !exhausted then Budget_exhausted else Proved_optimal)

let optimum ?node_limit t =
  match solve ?node_limit t with
  | r, Proved_optimal -> Some r.Solver.covered
  | _, Budget_exhausted -> None
