(** Versioned bench reports ([wx-bench/4]) and the one regression rule
    ({!judge}) that both [wx bench diff] and [wx bench history gate]
    apply.

    A report records, per experiment, the full list of wall-time samples
    (one per repeat), an optional GC/allocation block ({!Memgc.counters}
    measured around the run), the units done per {!Work} kind, a pool
    [util] block (pool runs, busy fraction, idle tail) and run
    provenance (git commit, hostname, jobs, seed), so a number in a
    committed baseline can always be traced back to the configuration
    that produced it. {!diff} compares two reports with {!judge} on three
    axes: wall time (noise-aware: a median-ratio breach {e and} disjoint
    sample ranges), minor words (deterministic per seed/jobs, so a bare
    1% ratio) and units/sec per work kind (the wall posture on a flipped
    axis, the worst kind deciding the experiment). *)

val schema : string
(** ["wx-bench/4"]. *)

(** Pool utilization summary, reduced from [Wx_par.Pool.util] by the bench
    runner (this module cannot depend on [Wx_par]). *)
type util = {
  ut_runs : int;  (** instrumented parallel pool runs in the experiment *)
  ut_busy_frac : float;  (** total busy / total capacity across runs, in [0, 1] *)
  ut_idle_tail_ms : float;  (** mean idle tail per parallel run *)
}

type entry = {
  id : string;
  title : string;
  claim : string;
  wall_s : float list;  (** one sample per repeat, in run order; non-empty *)
  alloc : Memgc.counters option;  (** [None] when Memgc was off *)
  work : (string * int) list;  (** units done per {!Work} kind; [[]] when Metrics was off *)
  util : util option;  (** [None] when Metrics was off *)
  holds : int;
  total : int;
  checks : Json.t;  (** opaque per-check rows, passed through verbatim *)
  metrics : Json.t;  (** opaque snapshot, [Null] when collection was off *)
}

type t = {
  generated : string;
  seed : int;
  quick : bool;
  jobs : int;
  repeats : int;
  provenance : (string * string) list;
  entries : entry list;
}

val median : float list -> float
(** Sample median; NaN on the empty list. *)

val rates : entry -> (string * float) list
(** Units/sec per work kind against the median wall sample — what the
    report's derived [rate_per_s] field and the ledger digest record;
    NaN when the median wall is zero or undefined. *)

val min_sample : float list -> float
val max_sample : float list -> float

val capture_provenance : unit -> (string * string) list
(** Best-effort environment capture: [git_commit] (with a [+dirty] suffix
    when the tree has uncommitted changes; ["unknown"] outside a checkout),
    [hostname], [os], [ocaml], [word_size]. *)

val make :
  ?provenance:(string * string) list ->
  seed:int ->
  quick:bool ->
  jobs:int ->
  repeats:int ->
  entry list ->
  t
(** Build a report stamped with {!Clock.timestamp}; [provenance] defaults
    to {!capture_provenance}. *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result

val load : string -> (t, string) result
(** Read and decode a report file; [Error] on IO, parse, or schema
    problems (never raises — the bench gate needs "malformed" as data). *)

val save : string -> t -> unit
(** Pretty-printed JSON, trailing newline. *)

(** {2 The regression rule} *)

type verdict = Regression | Improvement | Within_noise | Added | Removed

val verdict_name : verdict -> string

type metric = Wall | Alloc | Rate

val metric_name : metric -> string

type rule = {
  tolerance : float;  (** relative median move needed for a verdict *)
  ranged : bool;  (** also require disjoint sample ranges *)
  higher_is_worse : bool;  (** [false] for rates: a drop regresses *)
  floored : bool;  (** silenced when every wall sample is under {!min_wall_s} *)
}

val rule : metric -> rule
(** The one constant table. Wall: 25%, ranged, higher is worse, floored.
    Alloc: 1%, no range test, higher is worse, no floor (minor words are
    deterministic per seed/jobs). Rate: 25%, ranged, lower is worse
    (a regression needs the new median under [1 / 1.25] of the old),
    floored. *)

val min_wall_s : float
(** 0.05 — timer resolution dominates under 50ms. *)

type judgment = {
  verdict : verdict;
  old_median : float;  (** NaN when [Added] *)
  new_median : float;  (** NaN when [Removed] *)
  ratio : float;  (** new/old medians; 0/0 reads as 1, x/0 as infinity *)
  note : string;  (** why, when the verdict is not a plain [Within_noise] *)
}

val judge :
  ?walls:float list * float list -> metric -> old_:float list -> new_:float list -> judgment
(** Judge [new_] against [old_] under [rule metric]: {!Regression} when
    the median ratio moves past the tolerance in the worse direction (and,
    for a ranged rule, every new sample lies beyond every old one),
    {!Improvement} for the mirror image, {!Within_noise} otherwise. A
    floored metric is {!Within_noise} when every wall sample on both sides
    is under {!min_wall_s}; [walls] are those (old, new) wall samples and
    default to [(old_, new_)] themselves, which is right for [Wall]. An
    alloc side that recorded zero words regresses on any nonzero count. *)

(** {2 Diffing} *)

type delta = {
  d_id : string;
  d_old : entry option;  (** [None] when the experiment was added *)
  d_new : entry option;  (** [None] when it was removed *)
  wall : judgment;  (** verdict [Added]/[Removed] when one side is missing *)
  alloc : judgment option;  (** [None] unless both sides carry an alloc block *)
  rate : judgment option;
      (** the deciding work kind's judgment, its note prefixed by the kind;
          [None] when the sides share no work kind *)
}

val diff : old_:t -> new_:t -> delta list
(** One delta per experiment id in either report, in old-report order with
    new-only entries appended. Wall judges the wall samples (the note also
    flags a change in the checks that hold); alloc the minor-word counts;
    rate turns every wall sample into a units/sec sample per shared work
    kind, judges each kind with the wall samples deciding the floor, and
    keeps the worst. *)

val regressions : metric -> delta list -> delta list
(** The deltas whose judgment on the metric is {!Regression}. *)

val minor_words : entry option -> float
(** The entry's minor-word count; NaN when absent or without an alloc
    block. *)

val skipped : metric -> delta list -> bool
(** True when some compared pair (not added/removed) got no judgment on
    the metric although it should have: an alloc block missing on a side
    (Memgc off), or work kinds on a side but none in common (Metrics off
    during one recording). The case a caller should warn about. *)

val compat_warnings : old_:t -> new_:t -> string list
(** Human-readable warnings when quick mode, job count, or seed differ —
    the wall-time comparison is then not apples-to-apples. *)
