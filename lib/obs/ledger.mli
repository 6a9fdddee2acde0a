(** Perf-trajectory ledger ([wx-ledger/1]) and its trend gate.

    [wx bench diff] is pairwise: one report against one committed
    baseline. The ledger is longitudinal: an append-only NDJSON file
    (committed at [bench/ledger.ndjson]) holding one compact digest per
    recorded report — commit, dirty flag, timestamp, run provenance, and
    per experiment the median wall time and the deterministic minor-word
    count — so drift that
    stays inside every single diff's tolerance is still visible (and
    gateable) across PRs. {!gate} judges the newest entry against the
    preceding window with the diff's own rule, {!Report.judge}. *)

val schema : string
(** ["wx-ledger/1"], carried on every NDJSON line. *)

type exp_digest = {
  x_id : string;
  x_wall_s : float;  (** median wall of the report entry *)
  x_minor_words : float;  (** NaN when the report carried no alloc block *)
}

type entry = {
  l_commit : string;
      (** hex commit, ["+dirty"] stripped into {!field-l_dirty}; ["unknown"]
          outside a checkout *)
  l_dirty : bool;
  l_generated : string;
  l_seed : int;
  l_quick : bool;
  l_jobs : int;
  l_repeats : int;
  l_exps : exp_digest list;
}

val digest : Report.t -> entry
(** Compress a full bench report into one ledger entry. *)

val entry_to_json : entry -> Json.t

val entry_of_json : Json.t -> (entry, string) result
(** The [rate_per_s] object that older lines carry per experiment is
    ignored. *)

val load : string -> (entry list, string) result
(** Read a ledger file, one entry per non-blank line, oldest first.
    [Error] names the file, line and problem on IO, parse or schema
    failures (never raises — the gate needs "malformed" as data). *)

val save : string -> entry list -> unit
(** Compact NDJSON, one line per entry, trailing newline. *)

val append : entry list -> entry -> entry list
(** Dedup-by-commit append: any existing entry with the same
    (non-["unknown"]) commit is dropped and the new entry goes to the
    end — the newest measurement of a commit wins, so re-recording at
    one commit never grows the file. *)

(** {2 Series and rendering} *)

val series : Report.metric -> id:string -> entry list -> float list
(** The metric's value per entry, aligned with [entries] (oldest first);
    NaN marks entries where the experiment or its alloc block is absent,
    so a sparkline keeps the commit axis. *)

val exp_ids : entry list -> string list
(** Every experiment id appearing anywhere in the ledger, sorted. *)

val sparkline : float list -> string
(** Eight-level Unicode block rendering scaled to the series' own
    min..max; NaN renders as ['·'], a flat series as mid-level blocks.
    Deterministic for a fixed series. *)

(** {2 Trend gate} *)

type trend = {
  t_exp : string;
  t_metric : Report.metric;
  t_judgment : Report.judgment option;
      (** [None] when the window holds no earlier value or the newest entry
          lacks the series — never a failure; {!note} says which *)
  t_series : float list;  (** window-aligned, oldest..newest, NaN = missing *)
}

val window : int
(** 8 — entries considered by {!gate} (the newest is the candidate, the
    rest the baseline window). *)

val gate : entry list -> trend list
(** Trend verdicts over the last {!window} entries, one row per
    (experiment in the newest entry) × metric: {!Report.judge} with the
    series' earlier known values as the old samples and the newest
    entry's value as the one new sample. *)

val note : trend -> string
(** The judgment's note, or why there is none: ["insufficient history"]
    or ["absent from the newest entry"]. *)

val regressions : trend list -> trend list
