(* A naive scatter simulator of the radio model, written independently of
   the engine as its equivalence oracle: boolean arrays, a fresh hear-count
   array per round, transmitters pushing to their neighbors. It shares no
   code with Sim_csr; only the outcome record type is common vocabulary.

   A protocol here is a plain decision function over the round's state,
   called for every informed vertex in ascending order — the draw order
   the engine's fills promise. *)

module Graph = Wx_graph.Graph
module Rng = Wx_util.Rng

type state = { round : int; n : int; informed : bool array; since : int array }
type protocol = state -> int -> Rng.t -> bool

(* ⌈log₂ (max 2 n)⌉ + 1, by doubling. *)
let phase_length n =
  let rec go k p = if p >= max 2 n then k + 1 else go (k + 1) (2 * p) in
  go 0 1

let coin rng slot = Rng.bernoulli rng (1.0 /. float_of_int (1 lsl slot))
let flood : protocol = fun _ _ _ -> true

let decay ?k () : protocol =
 fun s v rng ->
  let k = match k with Some k -> k | None -> phase_length s.n in
  coin rng ((s.round - s.since.(v)) mod k)

let decay_global : protocol = fun s _ rng -> coin rng (s.round mod phase_length s.n)
let uniform p : protocol = fun _ _ rng -> Rng.bernoulli rng p

let run ?(sources = []) ~max_rounds g ~source (protocol : protocol) rng =
  let n = Graph.n g in
  let informed = Array.make n false and since = Array.make n (-1) in
  List.iter
    (fun v ->
      informed.(v) <- true;
      since.(v) <- 0)
    (source :: sources);
  let count () = Array.fold_left (fun c b -> if b then c + 1 else c) 0 informed in
  let round = ref 0 and collisions = ref 0 and history = ref [] in
  while count () < n && !round < max_rounds do
    let s = { round = !round; n; informed; since } in
    let tx = Array.init n (fun v -> informed.(v) && protocol s v rng) in
    let heard = Array.make n 0 in
    Array.iteri
      (fun v t -> if t then Graph.iter_neighbors g v (fun w -> heard.(w) <- heard.(w) + 1))
      tx;
    incr round;
    for w = 0 to n - 1 do
      if (not tx.(w)) && heard.(w) >= 2 then incr collisions;
      if (not tx.(w)) && heard.(w) = 1 && not informed.(w) then begin
        informed.(w) <- true;
        since.(w) <- !round
      end
    done;
    history := count () :: !history
  done;
  {
    Wx_radio.Sim.rounds = !round;
    completed = count () = n;
    informed_final = count ();
    collisions = !collisions;
    frontier_history = Array.of_list (List.rev !history);
  }
