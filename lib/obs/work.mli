(** Named work units — the throughput axis of the observability stack.

    A {!kind} counts abstract units of algorithmic work (sets scored,
    Gray-code steps, rounds simulated, sample draws). Each kind is backed
    by a {!Metrics} counter named ["work.<kind>"]: units appear in
    [--metrics] output and snapshots, zero with [Metrics.reset], and are
    domain-safe (atomic adds). Hot loops must batch into shard-local ints
    and flush once per shard, exactly like the [expansion.*] counters.

    On top of the registry, [Work] enumerates kinds so the bench runner can
    record each experiment's unit deltas as the work counts of its
    [wx-bench/4] entry — a record only, which no verdict reads.

    All write operations are single-flag-load no-ops while {!Metrics} is
    disabled; none ever reads a clock. *)

type kind

val kind : string -> kind
(** Intern a kind by name (idempotent). Keep registration off hot paths —
    one module-level handle per kind, like Metrics instruments. *)

val name : kind -> string

(** The core vocabulary, registered eagerly. *)

val sets_scored : kind
val gray_steps : kind
val rounds_simulated : kind
(** Radio rounds executed by the engine ([Wx_radio.Sim_csr.step] credits
    one unit per round). *)

val draws : kind

val vertex_scans : kind
(** ["radio.vertex_scans"]: vertex slots a radio round resolves (one unit
    per vertex per round, whichever kernel, push or gather, runs) — the
    denominator-free throughput axis of the SIMSCALE experiment. *)

val add : kind -> int -> unit
(** Credit [n] units; no-op while Metrics is disabled. *)

val incr : kind -> unit

val count : kind -> int
(** Units credited since the last [Metrics.reset] (one atomic load). *)

val totals : unit -> (string * int) list
(** All kinds with a nonzero count, sorted by name. *)

val grand_total : unit -> int
(** Sum across every kind — the span-attribution input for [wx prof]. *)

val delta : before:(string * int) list -> after:(string * int) list -> (string * int) list
(** Per-kind difference of two {!totals} readings (kinds absent in
    [before] count from 0); drops zero deltas. *)
