(* The performance-trajectory layer: the wx-bench/4 schema round-trips
   through Wx_obs.Json, bench-diff wall-time and allocation verdicts on
   synthetic report pairs (pinned at the rule table's
   boundaries), and the catapult traces Trace_export emits are well-formed
   (every event carries ph/ts/pid/tid, one track per pool worker). *)

module Json = Wx_obs.Json
module Report = Wx_obs.Report
module Memgc = Wx_obs.Memgc
module Trace = Wx_obs.Trace_export
open Common

(* A plausible alloc block: [minor_words w] scales the rest off the minor
   count so synthetic reports stay internally consistent. *)
let minor_words w =
  {
    Memgc.zero with
    Memgc.minor_words = w;
    promoted_words = w / 10;
    major_words = w / 8;
    minor_collections = 1 + (w / 100_000);
    top_heap_words = 4096;
  }

let entry ?(holds = 1) ?(total = 1) ?alloc ?(work = []) ?util id wall_s =
  {
    Report.id;
    title = "title of " ^ id;
    claim = "claim of " ^ id;
    wall_s;
    alloc;
    work;
    util;
    holds;
    total;
    checks = Json.List [ Json.Obj [ ("claim", Json.String id); ("holds", Json.Bool true) ] ];
    metrics = Json.Null;
  }

(* A plausible utilization block for round-trip tests. *)
let some_util = { Report.ut_runs = 4; ut_busy_frac = 0.82; ut_idle_tail_ms = 3.5 }

let report ?(quick = true) ?(jobs = 2) ?(repeats = 3) entries =
  Report.make ~provenance:[ ("git_commit", "deadbeef"); ("hostname", "testhost") ] ~seed:20180218
    ~quick ~jobs ~repeats entries

(* ---- schema ---- *)

let test_median () =
  check_true "empty is nan" (Float.is_nan (Report.median []));
  check_float "odd" 2.0 (Report.median [ 3.0; 1.0; 2.0 ]);
  check_float "even" 2.5 (Report.median [ 4.0; 1.0; 2.0; 3.0 ]);
  check_float "min" 1.0 (Report.min_sample [ 3.0; 1.0; 2.0 ]);
  check_float "max" 3.0 (Report.max_sample [ 3.0; 1.0; 2.0 ])

(* A one-entry report's JSON with field [name] of that entry mapped by [f]. *)
let with_entry_field name f = function
  | Json.Obj kvs ->
      Json.Obj
        (List.map
           (function
             | "experiments", Json.List [ Json.Obj ekvs ] ->
                 ( "experiments",
                   Json.List
                     [ Json.Obj (List.map (fun (k, v) -> (k, if k = name then f v else v)) ekvs) ]
                 )
             | kv -> kv)
           kvs)
  | _ -> assert false

let test_round_trip () =
  let r =
    report
      [
        entry ~alloc:(minor_words 650_489)
          ~work:[ ("gray_steps", 120_000); ("sets_scored", 4_500) ]
          ~util:some_util "e1" [ 1.0; 1.2; 0.9 ];
        (* Entry with neither alloc nor work/util: Memgc and Metrics off. *)
        entry ~holds:5 ~total:7 "e2" [ 0.25 ];
      ]
  in
  (* Through the renderer and parser, exactly as `wx bench record` writes
     and `wx bench diff` reads. *)
  let decoded =
    match Json.of_string (Json.to_string_pretty (Report.to_json r)) with
    | j -> ( match Report.of_json j with Ok d -> d | Error m -> Alcotest.failf "decode: %s" m)
    | exception Json.Parse_error m -> Alcotest.failf "parse: %s" m
  in
  check_true "round trip preserves everything" (decoded = r);
  (* Reports recorded while the util block also carried seq_runs,
     max_idle_tail_ms and per-slot rows still decode, to the same block. *)
  let with_old_util_members =
    with_entry_field "util"
      (function
        | Json.Obj u ->
            Json.Obj
              (u
              @ [
                  ("seq_runs", Json.Int 1);
                  ("max_idle_tail_ms", Json.Float 9.25);
                  ( "slots",
                    Json.List
                      [ Json.Obj [ ("busy_frac", Json.Float 0.9); ("chunks", Json.Int 17) ] ] );
                ])
        | v -> v)
      (Report.to_json (report [ entry ~util:some_util "e1" [ 1.0 ] ]))
  in
  (match Report.of_json with_old_util_members with
  | Ok { Report.entries = [ e ]; _ } ->
      check_true "older util block decodes" (e.Report.util = Some some_util)
  | Ok _ -> Alcotest.fail "older util block: wrong entries"
  | Error m -> Alcotest.failf "older util block: %s" m);
  (* Spot-check the schema marker actually written. *)
  match Json.member "schema" (Report.to_json r) with
  | Some (Json.String s) -> check_true "schema is wx-bench/4" (s = Report.schema)
  | _ -> Alcotest.fail "no schema field"

(* A report entry as written while the rate gate existed: the derived
   rate_per_s object rides next to work. It decodes, and re-encodes
   without it. *)
let pre_rate_removal_report =
  {|{"schema":"wx-bench/4","generated":"20261018T092442Z","seed":20180218,
     "quick":true,"jobs":2,"repeats":3,
     "provenance":{"git_commit":"e46b8ace156664458347e8790d3cdeac9c08a780"},
     "experiments":[{"id":"e1","title":"t","claim":"c","wall_s":[0.0031,0.0030,0.0029],
       "wall_median_s":0.0030,"wall_min_s":0.0029,"wall_max_s":0.0031,"holds":8,"total":8,
       "checks":[],"metrics":null,"work":{"gray_steps":16695,"sets_scored":3285},
       "rate_per_s":{"gray_steps":5534059.07,"sets_scored":1088911.89}}]}|}

let test_decode_pre_rate_removal () =
  match Report.of_json (Json.of_string pre_rate_removal_report) with
  | Error m -> Alcotest.failf "decode: %s" m
  | Ok ({ Report.entries = [ e ]; _ } as r) ->
      check_true "work counts kept"
        (e.Report.work = [ ("gray_steps", 16695); ("sets_scored", 3285) ]);
      check_true "wall samples kept" (e.Report.wall_s = [ 0.0031; 0.0030; 0.0029 ]);
      (match Json.member "experiments" (Report.to_json r) with
      | Some (Json.List [ ej ]) ->
          check_true "re-encodes work" (Json.member "work" ej <> None);
          check_true "re-encodes without rate_per_s" (Json.member "rate_per_s" ej = None)
      | _ -> Alcotest.fail "re-encoded report has no single entry")
  | Ok _ -> Alcotest.fail "expected one entry"

let test_malformed () =
  let reject name j =
    match Report.of_json j with
    | Ok _ -> Alcotest.failf "%s: accepted malformed report" name
    | Error m -> check_true (name ^ " names the problem") (String.length m > 0)
  in
  reject "not a report" (Json.Obj [ ("hello", Json.Int 1) ]);
  reject "unknown schema" (Json.Obj [ ("schema", Json.String "wx-bench/9") ]);
  (* Superseded schemas are no longer decoded. *)
  (match Report.to_json (report [ entry "e1" [ 1.0 ] ]) with
  | Json.Obj kvs ->
      reject "wx-bench/3"
        (Json.Obj
           (List.map
              (function "schema", _ -> ("schema", Json.String "wx-bench/3") | kv -> kv)
              kvs))
  | _ -> assert false);
  let base =
    Report.to_json (report [ entry "e1" [ 1.0 ] ])
  in
  (* Surgical corruption: empty the sample list. *)
  let corrupted = with_entry_field "wall_s" (fun _ -> Json.List []) base in
  reject "empty wall_s" corrupted;
  (match Report.load "/nonexistent/definitely-not-here.json" with
  | Ok _ -> Alcotest.fail "loaded a nonexistent file"
  | Error _ -> ())

(* ---- hostile input ---- *)

let test_json_bad_unicode_escape () =
  List.iter
    (fun src ->
      match Json.of_string src with
      | _ -> Alcotest.failf "accepted %s" src
      | exception Json.Parse_error _ -> ())
    [ {|"\uZZZZ"|}; {|"\u__41"|}; {|"\u12"|}; {|"\u"|} ];
  check_true "four hex digits decode" (Json.of_string {|"\u0041"|} = Json.String "A")

(* Arbitrary strings either parse or raise Parse_error — nothing else. *)
let prop_json_hostile s =
  match Json.of_string s with _ -> true | exception Json.Parse_error _ -> true

(* Byte-mutated copies of a valid report decode to Ok or Error; the
   decoder never raises. *)
let valid_report_text =
  Json.to_string_pretty
    (Report.to_json
       (report
          [
            entry ~alloc:(minor_words 650_489) ~work:[ ("gray_steps", 120_000) ] ~util:some_util
              "e1" [ 1.0; 1.2 ];
            entry "e2" [ 0.25 ];
          ]))

let prop_report_hostile s =
  match Json.of_string s with
  | exception Json.Parse_error _ -> true
  | j -> ( match Report.of_json j with Ok _ | Error _ -> true)

(* ---- diff verdicts ---- *)

let verdict_of deltas id =
  match List.find_opt (fun d -> d.Report.d_id = id) deltas with
  | Some d -> d.Report.wall.Report.verdict
  | None -> Alcotest.failf "no delta for %s" id

let test_diff_verdicts () =
  let old_ =
    report
      [
        entry "reg" [ 1.0; 1.05; 0.95 ];
        entry "overlap" [ 1.0; 1.05; 0.95 ];
        entry "small" [ 1.0; 1.05; 0.95 ];
        entry "imp" [ 1.0; 1.05; 0.95 ];
        entry "tiny" [ 0.010; 0.012; 0.011 ];
        entry "gone" [ 1.0 ];
      ]
  in
  let new_ =
    report
      [
        (* Median +45% and the ranges are disjoint: a real regression. *)
        entry "reg" [ 1.45; 1.40; 1.50 ];
        (* Median +30% but one sample dips into the old range: noise. *)
        entry "overlap" [ 1.30; 1.50; 1.02 ];
        (* Median +10%: under the 25% tolerance, noise. *)
        entry "small" [ 1.10; 1.12; 1.08 ];
        (* Median -50%, ranges disjoint: improvement. *)
        entry "imp" [ 0.50; 0.55; 0.45 ];
        (* 4x slower but both medians under the 50ms floor: noise. *)
        entry "tiny" [ 0.040; 0.042; 0.041 ];
        entry "fresh" [ 1.0 ];
      ]
  in
  let deltas = Report.diff ~old_ ~new_ in
  check_true "regression" (verdict_of deltas "reg" = Report.Regression);
  check_true "overlapping spread is noise" (verdict_of deltas "overlap" = Report.Within_noise);
  check_true "small change is noise" (verdict_of deltas "small" = Report.Within_noise);
  check_true "improvement" (verdict_of deltas "imp" = Report.Improvement);
  check_true "under floor is noise" (verdict_of deltas "tiny" = Report.Within_noise);
  check_true "removed" (verdict_of deltas "gone" = Report.Removed);
  check_true "added" (verdict_of deltas "fresh" = Report.Added);
  check_int "one regression total" 1 (List.length (Report.regressions Report.Wall deltas));
  (* Same report on both sides: everything within noise. *)
  let self = Report.diff ~old_ ~new_:old_ in
  check_true "self diff is clean"
    (List.for_all (fun d -> d.Report.wall.Report.verdict = Report.Within_noise) self)

let test_diff_tolerance_and_warnings () =
  let old_ = report [ entry "e" [ 1.0; 1.0; 1.0 ] ] in
  let verdict new_ = (List.hd (Report.diff ~old_ ~new_:(report [ entry "e" new_ ]))).Report.wall in
  (* The 25% wall tolerance: +20% is noise even with disjoint ranges,
     +30% with disjoint ranges regresses. *)
  check_true "+20% is noise"
    ((verdict [ 1.2; 1.2; 1.2 ]).Report.verdict = Report.Within_noise);
  check_true "+30% with disjoint ranges regresses"
    ((verdict [ 1.3; 1.3; 1.3 ]).Report.verdict = Report.Regression);
  (* The floor silences a pair only when every sample on both sides sits
     under 50ms: medians under it are not enough. *)
  let tiny = report [ entry "e" [ 0.010; 0.010; 0.010 ] ] in
  let d new_ = (List.hd (Report.diff ~old_:tiny ~new_:(report [ entry "e" new_ ]))).Report.wall in
  check_true "every sample under the floor is noise"
    ((d [ 0.040; 0.040; 0.045 ]).Report.verdict = Report.Within_noise);
  check_true "one sample over the floor lifts it"
    ((d [ 0.040; 0.040; 0.060 ]).Report.verdict = Report.Regression);
  let new_ = report [ entry "e" [ 1.2; 1.2; 1.2 ] ] in
  check_true "same config, no warnings" (Report.compat_warnings ~old_ ~new_ = []);
  let other = report ~quick:false ~jobs:8 [ entry "e" [ 1.0 ] ] in
  check_int "quick+jobs mismatches warned" 2
    (List.length (Report.compat_warnings ~old_ ~new_:other))

(* ---- allocation verdicts ---- *)

let alloc_verdict_of deltas id =
  match List.find_opt (fun d -> d.Report.d_id = id) deltas with
  | Some d -> Option.map (fun j -> j.Report.verdict) d.Report.alloc
  | None -> Alcotest.failf "no delta for %s" id

let test_alloc_verdicts () =
  let old_ =
    report
      [
        entry ~alloc:(minor_words 1_000_000) "reg" [ 1.0 ];
        entry ~alloc:(minor_words 1_000_000) "drift" [ 1.0 ];
        entry ~alloc:(minor_words 1_000_000) "imp" [ 1.0 ];
        entry ~alloc:(minor_words 1_000_000) "same" [ 1.0 ];
      ]
  in
  let new_ =
    report
      [
        (* +2% minor words: over the 1% tolerance — a regression, even
           though wall time is identical (determinism needs no floor). *)
        entry ~alloc:(minor_words 1_020_000) "reg" [ 1.0 ];
        (* +0.5%: inside the tolerance. *)
        entry ~alloc:(minor_words 1_005_000) "drift" [ 1.0 ];
        (* -2%: an improvement. *)
        entry ~alloc:(minor_words 980_000) "imp" [ 1.0 ];
        entry ~alloc:(minor_words 1_000_000) "same" [ 1.0 ];
      ]
  in
  let deltas = Report.diff ~old_ ~new_ in
  check_true "+2% minor words regresses" (alloc_verdict_of deltas "reg" = Some Report.Regression);
  check_true "+0.5% is within tolerance"
    (alloc_verdict_of deltas "drift" = Some Report.Within_noise);
  check_true "-2% improves" (alloc_verdict_of deltas "imp" = Some Report.Improvement);
  check_true "identical counts are clean"
    (alloc_verdict_of deltas "same" = Some Report.Within_noise);
  check_int "one alloc regression total" 1
    (List.length (Report.regressions Report.Alloc deltas));
  check_true "nothing skipped when both sides carry blocks"
    (not (Report.alloc_skipped deltas));
  (* Wall verdicts are independent: identical wall samples stay clean. *)
  check_true "no wall regressions" (Report.regressions Report.Wall deltas = [])

let test_alloc_mixed_versions () =
  (* A side recorded with Memgc off (no alloc block): the alloc verdict is
     skipped per entry, flagged via [alloc_skipped], and the wall verdict still
     computes normally. *)
  let old_ = report [ entry "e" [ 1.0; 1.0; 1.0 ] ] in
  let new_ = report [ entry ~alloc:(minor_words 500_000) "e" [ 2.0; 2.1; 1.9 ] ] in
  let deltas = Report.diff ~old_ ~new_ in
  check_true "alloc verdict skipped" (alloc_verdict_of deltas "e" = None);
  check_true "skip is flagged" (Report.alloc_skipped deltas);
  check_true "wall verdict still computed" (verdict_of deltas "e" = Report.Regression);
  (* The one-sided minor-word count still surfaces for the table. *)
  (match deltas with
  | [ d ] ->
      check_true "old words unknown" (Float.is_nan (Report.minor_words d.Report.d_old));
      check_float "new words shown" 500_000.0 (Report.minor_words d.Report.d_new)
  | _ -> Alcotest.fail "expected one delta");
  (* Added/removed entries never get an alloc verdict. *)
  let grown =
    report
      [ entry ~alloc:(minor_words 1) "e" [ 1.0 ]; entry ~alloc:(minor_words 1) "fresh" [ 1.0 ] ]
  in
  let deltas = Report.diff ~old_:(report [ entry ~alloc:(minor_words 1) "e" [ 1.0 ] ]) ~new_:grown in
  check_true "added entry has no alloc verdict" (alloc_verdict_of deltas "fresh" = None);
  check_true "added/removed do not count as skipped"
    (not (Report.alloc_skipped deltas))

(* ---- catapult traces ---- *)

let with_trace f =
  Trace.reset ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    f

let test_catapult_well_formed () =
  with_trace (fun () ->
      (* Real pool run on two domains so worker tracks exist. *)
      let sum =
        Wx_par.Pool.parallel_reduce_ranges ~jobs:2 ~range:1 ~n:64 ~init:0
          ~map:(fun ~lo ~hi:_ ->
            ignore (Sys.opaque_identity (List.init 100 Fun.id));
            lo)
          ~combine:( + ) ()
      in
      check_int "reduce still correct under tracing" (64 * 63 / 2) sum;
      let doc = Trace.to_json () in
      let events =
        match Json.member "traceEvents" doc with
        | Some (Json.List evs) -> evs
        | _ -> Alcotest.fail "no traceEvents list"
      in
      check_true "trace has events" (List.length events > 0);
      (* The acceptance bar: every event carries ph/ts/pid/tid. *)
      List.iter
        (fun ev ->
          List.iter
            (fun k ->
              if Json.member k ev = None then
                Alcotest.failf "event missing %s: %s" k (Json.to_string ev))
            [ "ph"; "ts"; "pid"; "tid" ])
        events;
      let complete =
        List.filter (fun ev -> Json.member "ph" ev = Some (Json.String "X")) events
      in
      let tids =
        List.sort_uniq compare
          (List.filter_map (fun ev -> Option.bind (Json.member "tid" ev) Json.to_int_opt) complete)
      in
      check_true "caller track present" (List.mem 0 tids);
      check_true "one track per worker domain" (List.mem 1 tids);
      let names =
        List.filter_map (fun ev -> Option.bind (Json.member "name" ev) Json.to_string_opt) complete
      in
      check_true "chunk slices present" (List.mem "chunk" names);
      check_true "reduce envelope present" (List.mem "parallel_reduce" names);
      (* Thread-name metadata names both tracks. *)
      let metas =
        List.filter (fun ev -> Json.member "ph" ev = Some (Json.String "M")) events
      in
      check_true "thread_name metadata present"
        (List.exists (fun ev -> Json.member "name" ev = Some (Json.String "thread_name")) metas);
      (* Durations are non-negative and ts is sane. *)
      List.iter
        (fun ev ->
          match Json.member "dur" ev with
          | Some d -> check_true "dur >= 0" (Option.get (Json.to_float_opt d) >= 0.0)
          | None -> ())
        complete)

let test_trace_disabled_records_nothing () =
  Trace.reset ();
  Trace.disable ();
  Trace.slice ~tid:0 ~name:"dropped" ~t0_ns:0 ~dur_ns:10 ();
  let doc = Trace.to_json () in
  match Json.member "traceEvents" doc with
  | Some (Json.List evs) ->
      check_true "only metadata while disabled"
        (List.for_all (fun ev -> Json.member "ph" ev = Some (Json.String "M")) evs)
  | _ -> Alcotest.fail "no traceEvents list"

let suite =
  [
    Alcotest.test_case "median / spread helpers" `Quick test_median;
    Alcotest.test_case "wx-bench/4 round trip" `Quick test_round_trip;
    Alcotest.test_case "malformed reports rejected" `Quick test_malformed;
    Alcotest.test_case "pre-rate-removal report decodes" `Quick test_decode_pre_rate_removal;
    Alcotest.test_case "json \\u escape needs four hex digits" `Quick test_json_bad_unicode_escape;
    qcheck ~count:1000 "json decoder: hostile strings" prop_json_hostile arbitrary_hostile_string;
    qcheck ~count:500 "report decoder: mutated reports" prop_report_hostile
      (arbitrary_mutation valid_report_text);
    Alcotest.test_case "diff verdicts on synthetic pairs" `Quick test_diff_verdicts;
    Alcotest.test_case "diff tolerance + compat warnings" `Quick test_diff_tolerance_and_warnings;
    Alcotest.test_case "alloc verdicts on synthetic pairs" `Quick test_alloc_verdicts;
    Alcotest.test_case "alloc verdict across schema versions" `Quick test_alloc_mixed_versions;
    Alcotest.test_case "catapult trace well-formed" `Quick test_catapult_well_formed;
    Alcotest.test_case "trace disabled records nothing" `Quick test_trace_disabled_records_nothing;
  ]
