(** Radio simulation vocabulary: what a broadcast run reports.

    The engine itself is {!Sim_csr}; this module holds the records it
    returns and streams, shared with {!Trace} and the benchmark. All runs
    are deterministic given the seed. *)

type outcome = {
  rounds : int;  (** rounds executed *)
  completed : bool;  (** everyone informed before the round limit *)
  informed_final : int;
  collisions : int;
  frontier_history : int array;  (** informed count after each round, index 0 = round 1 *)
}

type round_info = {
  index : int;  (** 1-based round number *)
  transmitters : int;
  newly_informed : int;
  informed_total : int;
  collisions_this_round : int;
}
(** The engine's per-round record. When metrics are enabled these feed
    the [radio.*] counters; when an NDJSON sink is installed each round is
    emitted as a ["radio.round"] event; [Trace] accumulates them. *)

val round_limit : int -> int
(** The default round budget for an [n]-vertex instance: [64·n + 1024],
    computed overflow-safely (pins to [max_int] once [64·n] would wrap —
    a documented cap, unreachable for any instance that fits in memory). *)
