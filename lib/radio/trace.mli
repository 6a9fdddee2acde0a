(** Detailed per-round simulation traces.

    {!Sim_csr.run} reports aggregate outcomes; this driver records what happened
    each round — transmitter count, new receptions, collision events — and
    renders a compact text timeline. The debugging view a protocol author
    reaches for when a broadcast stalls. *)

type round = Sim.round_info = {
  index : int;  (** 1-based round number *)
  transmitters : int;
  newly_informed : int;
  informed_total : int;
  collisions_this_round : int;
}

type t = { rounds : round list; completed : bool; population : int  (** n *) }

val run :
  ?max_rounds:int ->
  Wx_graph.Graph.t ->
  source:int ->
  Sim_csr.protocol ->
  Wx_util.Rng.t ->
  t

val render : ?width:int -> t -> string
(** One line per round:
    [r  12 | tx   5 | +  3 | informed  47 | coll  2 | ###....]
    with a bar showing the informed fraction. *)

val stalled_rounds : t -> int
(** Rounds with transmitters but no new receptions — the collision-stall
    signature (e.g. flooding on C⁺ shows nothing but these). *)
