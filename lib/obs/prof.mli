(** Offline analysis of Chrome-trace files: aggregate span profiles and
    differential profiling ([wx prof diff]).

    {!Trace_export} writes timelines; this module reads them back. A
    trace's complete ("X") slices nest by time containment per track
    (tid), so one interval-stack pass per track recovers each slice's
    parent; from that come per-span SELF costs (total minus children —
    the number that localizes a regression). All outputs are
    deterministic for fixed input files. *)

type row = {
  r_name : string;
  r_tid : int;
  r_t0_us : float;
  r_dur_us : float;
  r_minor_words : float;  (** 0 when the slice was not alloc-tagged *)
}

val rows_of_json : Json.t -> (row list, string) result
(** Extract the complete ("X") events of a catapult document; metadata
    and counter events are skipped. [Error] on missing [traceEvents] or
    a malformed X event — the diff gate needs "not a trace" as data. *)

val load : string -> (row list, string) result
(** Read and decode a trace file; [Error] (prefixed with the path) on
    IO, parse, or shape problems. Never raises. *)

type agg = {
  a_name : string;
  a_calls : int;
  a_total_us : float;
  a_self_us : float;
  a_minor_words : float;
  a_self_minor_words : float;
}

val profile : row list -> agg list
(** Aggregate slices by name after containment nesting, sorted by self
    time descending (ties by name). Self = duration minus directly
    contained children, clamped at 0. *)

(** {2 Differential profile} *)

type pdelta = {
  p_name : string;
  p_calls_old : int;  (** 0 when new-only *)
  p_calls_new : int;  (** 0 when old-only *)
  p_old_self_us : float;
  p_new_self_us : float;
  p_delta_self_us : float;  (** new − old; an absent side counts as 0 *)
  p_old_self_minor : float;
  p_new_self_minor : float;
  p_delta_self_minor : float;
}

val diff_profiles : old_:agg list -> new_:agg list -> pdelta list
(** One delta per span name on either side, regression-first (self-time
    delta descending, ties by name) — the head of the list is where the
    time went. *)

val default_self_tolerance : float
(** 0.25 — a span's self time must grow 25% to count. *)

val default_min_delta_us : float
(** 1000 — and by at least 1ms in absolute terms; tiny spans double on
    scheduler noise alone. *)

val pdelta_regressed : pdelta -> bool
(** True when the span's self time grew beyond both
    {!default_self_tolerance} and {!default_min_delta_us}. Spans absent on the old side
    regress when their new self time alone exceeds the floor. *)
