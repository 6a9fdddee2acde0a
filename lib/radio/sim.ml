(* The radio vocabulary shared by the engine (Sim_csr), Trace and the
   benchmark: the per-run outcome, the per-round record and the default
   round budget. *)

type outcome = {
  rounds : int;
  completed : bool;
  informed_final : int;
  collisions : int;
  frontier_history : int array;
}

(* Everything the engine knows about one completed round. This is the
   single per-round record: metrics, the NDJSON sink and Trace all feed off
   it, so the three views can never disagree. *)
type round_info = {
  index : int; (* 1-based *)
  transmitters : int;
  newly_informed : int;
  informed_total : int;
  collisions_this_round : int;
}

(* 64·n + 1024 with the multiply guarded: for n past ~max_int/64 (never
   simulatable anyway — the graph alone would not fit) the limit pins to
   max_int instead of wrapping negative and stopping the loop at round 0. *)
let round_limit n = if n >= (max_int - 1024) / 64 then max_int else (64 * n) + 1024
