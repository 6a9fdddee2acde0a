(* GC / allocation observability.

   Wall time answers "how long"; this module answers "how many words" —
   and unlike wall time, allocation is deterministic: for a fixed seed and
   job count, two runs of the same code allocate byte-identical minor-word
   counts, so a regression gate on minor words needs no noise floor at all
   (see Report.diff's alloc verdict and DESIGN.md §8).

   Sourcing the minor-word count needs care on OCaml 5.1 (both facts
   verified empirically on this runtime):

   - [Gc.quick_stat ()] reports only *flushed* minor allocation: the
     calling domain's words are counted at its last minor collection, so a
     workload smaller than the minor heap reads as zero. Terminated
     domains ARE folded in completely (the runtime merges a domain's stats
     when it dies), but the caller's own live window is invisible.
   - [Gc.minor_words ()] is exact and live (domain-local stat plus the
     current young-pointer offset) but strictly domain-local: a joined
     worker's 1.3M words move quick_stat and leave it untouched.
   - [Gc.counters ()] is scaled wrong on 5.1 (off by the word size) and is
     not used at all.

   So the global count [read] reports is [Gc.minor_words ()] on the
   calling domain plus [foreign]: an atomic accumulator that
   Wx_par.Pool workers add their own exact totals to as they exit (before
   the join makes those adds visible to the caller). Both components are
   live and exact, nothing is double-counted (quick_stat's merged view is
   never mixed in), and the sum is deterministic even though chunk
   stealing spreads work nondeterministically — the per-worker sum is
   fixed. quick_stat still sources the non-gated context fields
   (promoted/major words, collection counts, top heap).

   Determinism fine print: minor_words deltas are byte-stable run to run;
   promoted/major words and collection counts are NOT (promotion depends
   on where minor collections happen to land), which is why the bench gate
   compares minor words only and records the rest as context.

   Zero-cost-when-disabled contract: every entry point starts with one
   atomic flag load; while disabled no Gc function is called at all. The
   [gc_read_count] hook counts every Gc read this module performs so tests
   can assert exactly that.

   The major-cycle alarm ([Gc.create_alarm]) is deliberately NOT part of
   [enable]: the stdlib re-arms alarms through [Gc.finalise], which itself
   allocates once per major cycle — harmless for tracing, but enough to
   perturb the byte-identical minor-word counts the bench gate depends on.
   [install_alarm] is opt-in (used by `wx prof` and the trace counter
   track), never by `wx bench record`. *)

let enabled =
  Atomic.make
    (match Sys.getenv_opt "WX_MEMGC" with
    | Some ("1" | "true" | "on" | "yes") -> true
    | _ -> false)

let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

(* Test hook: total Gc reads performed by this module, enabled or not.
   A plain counter (not Metrics) so it works with the registry disabled. *)
let gc_reads = Atomic.make 0
let gc_read_count () = Atomic.get gc_reads

type counters = {
  minor_words : int;
  promoted_words : int;
  major_words : int;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  forced_major_collections : int;
  top_heap_words : int;
}

let zero =
  {
    minor_words = 0;
    promoted_words = 0;
    major_words = 0;
    minor_collections = 0;
    major_collections = 0;
    compactions = 0;
    forced_major_collections = 0;
    top_heap_words = 0;
  }

(* Word counts are floats in [Gc.stat] but integral in value; int keeps the
   JSON exact and the determinism check a plain equality. *)
let words f = int_of_float f

(* Minor words allocated by already-exited pool workers (see header). An
   int accumulator: per-worker totals are integral in value, and integer
   atomics stay exact where float adds could reorder. *)
let foreign = Atomic.make 0
let add_foreign_minor_words w = if w > 0 then ignore (Atomic.fetch_and_add foreign w)

let read_always () =
  (* Two Gc reads: the merged-but-stale quick_stat for context fields, the
     live domain-local counter (+ foreign) for the gated minor count. *)
  Atomic.incr gc_reads;
  Atomic.incr gc_reads;
  let s = Gc.quick_stat () in
  {
    minor_words = words (Gc.minor_words ()) + Atomic.get foreign;
    promoted_words = words s.Gc.promoted_words;
    major_words = words s.Gc.major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    compactions = s.Gc.compactions;
    forced_major_collections = s.Gc.forced_major_collections;
    top_heap_words = s.Gc.top_heap_words;
  }

let read () = if Atomic.get enabled then read_always () else zero

(* Counters are cumulative; a measurement is a subtraction. top_heap_words
   is a high-water mark, not a rate — keep the [after] value. *)
let diff ~before ~after =
  {
    minor_words = after.minor_words - before.minor_words;
    promoted_words = after.promoted_words - before.promoted_words;
    major_words = after.major_words - before.major_words;
    minor_collections = after.minor_collections - before.minor_collections;
    major_collections = after.major_collections - before.major_collections;
    compactions = after.compactions - before.compactions;
    forced_major_collections =
      after.forced_major_collections - before.forced_major_collections;
    top_heap_words = after.top_heap_words;
  }

let own_minor_words () =
  if Atomic.get enabled then begin
    Atomic.incr gc_reads;
    Gc.minor_words ()
  end
  else 0.0

(* ---- major-cycle alarm (opt-in; see header) ---- *)

let major_cycle_count = Atomic.make 0
let major_cycles () = Atomic.get major_cycle_count
let alarm : Gc.alarm option ref = ref None

let on_major_cycle () =
  Atomic.incr major_cycle_count;
  (* A counter sample at every major-cycle end gives the trace a heap
     track that moves even between spans. *)
  if Trace_export.is_enabled () then begin
    Atomic.incr gc_reads;
    let s = Gc.quick_stat () in
    Trace_export.counter ~name:"gc.major"
      ~t_ns:(Clock.now_ns ())
      [
        ("major_words", s.Gc.major_words);
        ("top_heap_words", float_of_int s.Gc.top_heap_words);
      ]
  end

let install_alarm () =
  match !alarm with
  | Some _ -> ()
  | None -> alarm := Some (Gc.create_alarm on_major_cycle)

let remove_alarm () =
  match !alarm with
  | Some a ->
      Gc.delete_alarm a;
      alarm := None
  | None -> ()

(* ---- JSON codec (the bench report's per-experiment "alloc" block) ---- *)

let to_json c =
  Json.Obj
    [
      ("minor_words", Json.Int c.minor_words);
      ("promoted_words", Json.Int c.promoted_words);
      ("major_words", Json.Int c.major_words);
      ("minor_collections", Json.Int c.minor_collections);
      ("major_collections", Json.Int c.major_collections);
      ("compactions", Json.Int c.compactions);
      ("forced_major_collections", Json.Int c.forced_major_collections);
      ("top_heap_words", Json.Int c.top_heap_words);
    ]

let of_json j =
  let int k = Option.bind (Json.member k j) Json.to_int_opt in
  match
    ( int "minor_words",
      int "promoted_words",
      int "major_words",
      int "minor_collections",
      int "major_collections",
      int "compactions",
      int "forced_major_collections",
      int "top_heap_words" )
  with
  | Some mw, Some pw, Some jw, Some mc, Some jc, Some co, Some fo, Some th ->
      Some
        {
          minor_words = mw;
          promoted_words = pw;
          major_words = jw;
          minor_collections = mc;
          major_collections = jc;
          compactions = co;
          forced_major_collections = fo;
          top_heap_words = th;
        }
  | _ -> None

let render c =
  Printf.sprintf
    "minor %dw, promoted %dw, major %dw, collections %d minor / %d major \
     (%d forced), compactions %d, top heap %dw"
    c.minor_words c.promoted_words c.major_words c.minor_collections
    c.major_collections c.forced_major_collections c.compactions
    c.top_heap_words
