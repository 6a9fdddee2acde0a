(** GC / allocation observability sourced from [Gc.quick_stat], plus an
    opt-in [Gc.create_alarm] major-cycle hook.

    Allocation counts — unlike wall times — are deterministic for a fixed
    seed and job count, so measurements taken here can gate a perf CI job
    orders of magnitude tighter than a wall-time diff (1% with no noise
    floor; see {!Report}'s alloc verdict and DESIGN.md §8). Only
    [minor_words] deltas carry that guarantee: promoted/major words and
    collection counts depend on where minor collections land and are
    recorded as context, not gated.

    On OCaml 5.1 [Gc.quick_stat] only reports minor allocation that a
    minor collection has already flushed, so {!read} sources its gated
    [minor_words] from the live domain-local counter ([Gc.minor_words])
    plus the words credited by {!add_foreign_minor_words} — an
    accumulator that [Wx_par.Pool] workers feed their own exact totals
    into as they exit. The result
    covers worker-domain allocation without waiting for a collection.
    quick_stat still sources the non-gated context fields. Use
    {!own_minor_words} (current domain only) for in-flight per-worker
    attribution, as the pool does.

    Zero-cost-when-disabled: every entry point is one atomic flag load,
    and no [Gc] function runs while disabled — {!gc_read_count} lets tests
    assert exactly that. Enable with {!enable} or [WX_MEMGC=1]. *)

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

type counters = {
  minor_words : int;
      (** the gated number: exact run to run at jobs 1, and within ~0.15 %
          at jobs > 1, where scheduling shifts a little allocation *)
  promoted_words : int;
  major_words : int;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  forced_major_collections : int;
  top_heap_words : int;  (** high-water mark, not a rate *)
}

val zero : counters

val read : unit -> counters
(** Cumulative counters: live [minor_words] for this domain plus
    the words credited by {!add_foreign_minor_words}; context fields from [Gc.quick_stat]. {!zero},
    and no Gc read, while disabled. *)

val diff : before:counters -> after:counters -> counters
(** Elementwise [after - before]; [top_heap_words] keeps [after]'s
    high-water value. *)

val own_minor_words : unit -> float
(** The calling domain's own minor allocation ([Gc.minor_words]: exact and
    live, strictly domain-local); [0.0], and no Gc read, while disabled.
    For live per-worker attribution. *)

val add_foreign_minor_words : int -> unit
(** Credit minor words allocated on another (about-to-exit) domain, so
    {!read} on the pool-owning domain sees them. Called by [Wx_par.Pool]
    at worker exit; negative or zero amounts are ignored. *)

val gc_read_count : unit -> int
(** Test hook: total Gc reads this module has performed since startup. *)

(** {2 Major-cycle alarm}

    Deliberately separate from {!enable}: the stdlib re-arms alarms via
    [Gc.finalise], which allocates once per major cycle — fine for
    tracing, but enough to perturb the minor-word counts the bench gate
    depends on. [wx prof] installs it; [wx bench record]
    never does. While {!Trace_export} is enabled, each cycle end also
    emits a ["gc.major"] counter sample onto the trace. *)

val install_alarm : unit -> unit
val remove_alarm : unit -> unit

val major_cycles : unit -> int
(** Major GC cycles observed since {!install_alarm}. *)

(** {2 Codec} *)

val to_json : counters -> Json.t
val of_json : Json.t -> counters option
val render : counters -> string
