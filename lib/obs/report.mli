(** Versioned bench reports ([wx-bench/4]) and the one regression rule
    ({!judge}) that both [wx bench diff] and [wx bench history gate]
    apply.

    A report records, per experiment, the full list of wall-time samples
    (one per repeat), an optional GC/allocation block ({!Memgc.counters}
    measured around the run), the units done per {!Work} kind, a pool
    [util] block (pool runs, busy fraction, idle tail) and run
    provenance (git commit, hostname, jobs, seed), so a number in a
    committed baseline can always be traced back to the configuration
    that produced it. {!diff} compares two reports with {!judge} on two
    axes: wall time (noise-aware: a median-ratio breach {e and} disjoint
    sample ranges) and minor words (exact at jobs 1 and within ~0.15 % at
    jobs > 1, so a bare 1% ratio). The work counts and the util block are a record only; no
    verdict reads them. *)

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
(** Decode a [wx-bench/4] report. The derived [rate_per_s] object that
    older reports carry per entry is ignored. *)

val load : string -> (t, string) result
(** Read and decode a report file; [Error] on IO, parse, or schema
    problems (never raises — the bench gate needs "malformed" as data). *)

val save : string -> t -> unit
(** Pretty-printed JSON, trailing newline. *)

(** {2 The regression rule} *)

type verdict = Regression | Improvement | Within_noise | Added | Removed

val verdict_name : verdict -> string

type metric = Wall | Alloc

val metric_name : metric -> string

type rule = {
  tolerance : float;  (** relative median move needed for a verdict *)
  ranged : bool;  (** also require disjoint sample ranges *)
  floored : bool;  (** silenced when every sample is under {!min_wall_s} *)
}

val rule : metric -> rule
(** The one constant table; higher is worse on both axes. Wall: 25%,
    ranged, floored. Alloc: 1%, no range test, no floor (minor words are
    exact at jobs 1 and vary by well under 1% at jobs > 1). *)

val min_wall_s : float
(** 0.05 — timer resolution dominates under 50ms. *)

type judgment = {
  verdict : verdict;
  old_median : float;  (** NaN when [Added] *)
  new_median : float;  (** NaN when [Removed] *)
  ratio : float;  (** new/old medians; 0/0 reads as 1, x/0 as infinity *)
  note : string;  (** why, when the verdict is not a plain [Within_noise] *)
}

val judge : metric -> old_:float list -> new_:float list -> judgment
(** Judge [new_] against [old_] under [rule metric]: {!Regression} when
    the median ratio rises past [1 + tolerance] (and, for a ranged rule,
    every new sample lies above every old one), {!Improvement} when it
    falls under [1 - tolerance] (every new sample below every old one),
    {!Within_noise} otherwise. A floored metric is {!Within_noise} when
    every sample on both sides is under {!min_wall_s}. An alloc side that
    recorded zero words regresses on any nonzero count. *)

(** {2 Diffing} *)

type delta = {
  d_id : string;
  d_old : entry option;  (** [None] when the experiment was added *)
  d_new : entry option;  (** [None] when it was removed *)
  wall : judgment;  (** verdict [Added]/[Removed] when one side is missing *)
  alloc : judgment option;  (** [None] unless both sides carry an alloc block *)
}

val diff : old_:t -> new_:t -> delta list
(** One delta per experiment id in either report, in old-report order with
    new-only entries appended. Wall judges the wall samples (the note also
    flags a change in the checks that hold); alloc the minor-word counts. *)

val regressions : metric -> delta list -> delta list
(** The deltas whose judgment on the metric is {!Regression}. *)

val minor_words : entry option -> float
(** The entry's minor-word count; NaN when absent or without an alloc
    block. *)

val alloc_skipped : delta list -> bool
(** True when some compared pair (not added/removed) got no alloc
    judgment because a side lacks an alloc block (Memgc off) — the case
    a caller should warn about. *)

val compat_warnings : old_:t -> new_:t -> string list
(** Human-readable warnings when quick mode, job count, or seed differ —
    the wall-time comparison is then not apples-to-apples. *)
