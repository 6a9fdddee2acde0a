(* The longitudinal half of the performance-trajectory layer: the
   wx-ledger/1 digest and codec round-trip, dedup-by-commit append, file
   round-trips with malformed-line reporting, trend-gate verdicts on
   synthetic histories (wall / alloc postures, floor, insufficient
   history, series absent from the newest entry), older lines that still
   carry rate_per_s, sparklines, and the Prof trace analysis —
   containment nesting and differential profiles. *)

module Json = Wx_obs.Json
module Report = Wx_obs.Report
module Memgc = Wx_obs.Memgc
module Ledger = Wx_obs.Ledger
module Prof = Wx_obs.Prof
open Common

(* ---- synthetic ledgers ---- *)

let exp_digest ?(minor = Float.nan) id wall =
  { Ledger.x_id = id; x_wall_s = wall; x_minor_words = minor }

let entry ?(commit = "c0") ?(dirty = false) exps =
  {
    Ledger.l_commit = commit;
    l_dirty = dirty;
    l_generated = "20260808T000000Z";
    l_seed = 20180218;
    l_quick = true;
    l_jobs = 2;
    l_repeats = 3;
    l_exps = exps;
  }

(* A history where experiment [id]'s wall walks through [walls], one entry
   (commit c0, c1, ...) per value; minor words ride along when given. *)
let history ?minors id walls =
  List.mapi
    (fun i w ->
      let minor = match minors with Some ms -> List.nth ms i | None -> Float.nan in
      entry ~commit:(Printf.sprintf "c%d" i) [ exp_digest ~minor id w ])
    walls

let find_trend trends ~metric id =
  match
    List.find_opt
      (fun (t : Ledger.trend) -> t.Ledger.t_exp = id && t.Ledger.t_metric = metric)
      trends
  with
  | Some t -> t
  | None -> Alcotest.failf "no %s trend for %s" (Report.metric_name metric) id

let check_verdict msg expected (t : Ledger.trend) =
  Alcotest.(check string)
    msg
    (match expected with None -> "none" | Some v -> Report.verdict_name v)
    (match t.Ledger.t_judgment with None -> "none" | Some j -> Report.verdict_name j.Report.verdict)

(* ---- digest ---- *)

let test_digest () =
  let r =
    Report.make
      ~provenance:[ ("git_commit", "abcd1234+dirty"); ("hostname", "h") ]
      ~seed:7 ~quick:false ~jobs:4 ~repeats:5
      [
        {
          Report.id = "e1";
          title = "t";
          claim = "c";
          wall_s = [ 2.0; 1.0; 3.0 ];
          alloc = Some { Memgc.zero with Memgc.minor_words = 1234 };
          work = [ ("steps", 100) ];
          util = None;
          holds = 1;
          total = 1;
          checks = Json.Null;
          metrics = Json.Null;
        };
      ]
  in
  let e = Ledger.digest r in
  Alcotest.(check string) "dirty suffix stripped" "abcd1234" e.Ledger.l_commit;
  check_true "dirty flag set" e.Ledger.l_dirty;
  check_int "seed" 7 e.Ledger.l_seed;
  check_int "jobs" 4 e.Ledger.l_jobs;
  (match e.Ledger.l_exps with
  | [ x ] ->
      check_float "median wall digested" 2.0 x.Ledger.x_wall_s;
      check_float "minor words" 1234.0 x.Ledger.x_minor_words
  | _ -> Alcotest.fail "one experiment digest expected");
  (* No provenance commit -> "unknown", not an error. *)
  let r2 = Report.make ~provenance:[] ~seed:1 ~quick:true ~jobs:1 ~repeats:1 [] in
  Alcotest.(check string) "no commit -> unknown" "unknown" (Ledger.digest r2).Ledger.l_commit

(* ---- codec ---- *)

let test_round_trip () =
  let e =
    entry ~commit:"feedface" ~dirty:true
      [
        exp_digest ~minor:42.0 "e1" 0.25;
        exp_digest "e2" 1.5 (* no alloc block *);
      ]
  in
  match Ledger.entry_of_json (Ledger.entry_to_json e) with
  | Error m -> Alcotest.failf "round trip: %s" m
  | Ok e' ->
      Alcotest.(check string) "commit" e.Ledger.l_commit e'.Ledger.l_commit;
      check_true "dirty" e'.Ledger.l_dirty;
      check_int "exps" 2 (List.length e'.Ledger.l_exps);
      let x1 = List.hd e'.Ledger.l_exps and x2 = List.nth e'.Ledger.l_exps 1 in
      check_float "wall" 0.25 x1.Ledger.x_wall_s;
      check_float "minor" 42.0 x1.Ledger.x_minor_words;
      check_true "missing minor decodes NaN" (Float.is_nan x2.Ledger.x_minor_words)

(* A line as written while the rate gate existed (trimmed from the
   committed bench/ledger.ndjson): rate_per_s decodes and is dropped. *)
let pre_rate_removal_line =
  {|{"schema":"wx-ledger/1","commit":"e46b8ace156664458347e8790d3cdeac9c08a780","dirty":false,"generated":"20261018T092442Z","seed":20180218,"quick":true,"jobs":2,"repeats":3,"experiments":[{"id":"e1","wall_s":0.0030167729999999999,"minor_words":164620.0,"rate_per_s":{"gray_steps":5534059.0757077178,"sets_scored":1088911.8936028664,"subtrees_pruned":502855.2032254333}},{"id":"e2","wall_s":0.0020094190000000001,"minor_words":87342.0,"rate_per_s":{"sets_scored":3879230.762722956,"subtrees_pruned":2288223.6109044454}}]}|}

let test_decode_pre_rate_removal () =
  match Ledger.entry_of_json (Json.of_string pre_rate_removal_line) with
  | Error m -> Alcotest.failf "decode: %s" m
  | Ok e ->
      Alcotest.(check string) "commit" "e46b8ace156664458347e8790d3cdeac9c08a780" e.Ledger.l_commit;
      (match e.Ledger.l_exps with
      | [ x1; x2 ] ->
          Alcotest.(check string) "first id" "e1" x1.Ledger.x_id;
          check_float "e1 wall" 0.0030167729999999999 x1.Ledger.x_wall_s;
          check_float "e1 minor" 164620.0 x1.Ledger.x_minor_words;
          check_float "e2 minor" 87342.0 x2.Ledger.x_minor_words
      | _ -> Alcotest.fail "two experiment digests expected");
      (match Json.member "experiments" (Ledger.entry_to_json e) with
      | Some (Json.List xs) ->
          check_int "both digests re-encoded" 2 (List.length xs);
          check_true "re-encodes without rate_per_s"
            (List.for_all (fun x -> Json.member "rate_per_s" x = None) xs)
      | _ -> Alcotest.fail "re-encoded line has no experiments list");
      (* And the re-encoded line decodes to the same entry. *)
      match Ledger.entry_of_json (Ledger.entry_to_json e) with
      | Ok e' -> check_true "re-encoded line round-trips" (e' = e)
      | Error m -> Alcotest.failf "re-decode: %s" m

let test_codec_rejects () =
  let reject msg j =
    match Ledger.entry_of_json j with
    | Ok _ -> Alcotest.failf "%s: accepted" msg
    | Error _ -> ()
  in
  reject "wrong schema"
    (Json.Obj [ ("schema", Json.String "wx-ledger/999"); ("commit", Json.String "c") ]);
  reject "no schema" (Json.Obj [ ("commit", Json.String "c") ]);
  reject "commit not a string"
    (match Ledger.entry_to_json (entry []) with
    | Json.Obj kvs ->
        Json.Obj (List.map (fun (k, v) -> if k = "commit" then (k, Json.Int 3) else (k, v)) kvs)
    | _ -> Json.Null)

(* Byte-mutated copies of a valid ledger line decode to Ok or Error; the
   decoder never raises. *)
let prop_entry_hostile s =
  match Json.of_string s with
  | exception Json.Parse_error _ -> true
  | j -> ( match Ledger.entry_of_json j with Ok _ | Error _ -> true)

let valid_line =
  Json.to_string
    (Ledger.entry_to_json
       (entry ~commit:"feedface"
          [ exp_digest ~minor:42.0 "e1" 0.25; exp_digest "e2" 1.5 ]))

(* ---- append / file IO ---- *)

let test_append_dedup () =
  let l0 = Ledger.append [] (entry ~commit:"aaa" []) in
  let l1 = Ledger.append l0 (entry ~commit:"bbb" []) in
  check_int "two commits, two entries" 2 (List.length l1);
  let l2 = Ledger.append l1 (entry ~commit:"aaa" ~dirty:true []) in
  check_int "re-append replaces, not grows" 2 (List.length l2);
  (match List.rev l2 with
  | newest :: _ ->
      Alcotest.(check string) "replaced entry moves to the end" "aaa" newest.Ledger.l_commit;
      check_true "newest measurement wins" newest.Ledger.l_dirty
  | [] -> Alcotest.fail "empty");
  (* "unknown" commits have no identity to dedup on: always append. *)
  let l3 = Ledger.append (Ledger.append l2 (entry ~commit:"unknown" [])) (entry ~commit:"unknown" []) in
  check_int "unknown always appends" 4 (List.length l3)

let test_file_round_trip () =
  let path = Filename.temp_file "wx-ledger" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let entries =
        [ entry ~commit:"aaa" [ exp_digest "e1" 1.0 ]; entry ~commit:"bbb" [ exp_digest "e1" 2.0 ] ]
      in
      Ledger.save path entries;
      (match Ledger.load path with
      | Error m -> Alcotest.failf "load: %s" m
      | Ok back ->
          check_int "entries back" 2 (List.length back);
          Alcotest.(check string) "order preserved" "bbb" (List.nth back 1).Ledger.l_commit);
      (* A malformed line is an error naming the file and line, and blank
         lines are skipped. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "\nnot json\n";
      close_out oc;
      match Ledger.load path with
      | Ok _ -> Alcotest.fail "malformed line accepted"
      | Error m ->
          check_true "error names the line" (String.length m > 0 && String.contains m ':'))

(* ---- trend gate ---- *)

let test_gate_wall () =
  (* Steady ~1.0s then a 1.5s candidate: ratio 1.5 > 1.25 and above the
     window max -> regression. *)
  let regressed = history "e1" [ 1.0; 1.02; 0.98; 1.01; 1.5 ] in
  let t = find_trend (Ledger.gate regressed) ~metric:Report.Wall "e1" in
  check_verdict "wall spike regresses" (Some Report.Regression) t;
  check_float ~eps:1e-6 "baseline is window median" 1.005
    (Option.get t.Ledger.t_judgment).Report.old_median;
  (* Same ratio but inside the window's range (a previous sample was just
     as slow): noisy history, not a trend. *)
  let noisy = history "e1" [ 1.0; 1.6; 0.98; 1.01; 1.5 ] in
  check_verdict "spike inside window range is noise" (Some Report.Within_noise)
    (find_trend (Ledger.gate noisy) ~metric:Report.Wall "e1");
  (* Improvement is the mirror image. *)
  let improved = history "e1" [ 1.0; 1.02; 0.98; 1.01; 0.5 ] in
  check_verdict "wall drop improves" (Some Report.Improvement)
    (find_trend (Ledger.gate improved) ~metric:Report.Wall "e1");
  (* Under the 50ms floor nothing fires, whatever the ratio. *)
  let tiny = history "e1" [ 0.001; 0.001; 0.010 ] in
  let t = find_trend (Ledger.gate tiny) ~metric:Report.Wall "e1" in
  check_verdict "under floor is noise" (Some Report.Within_noise) t;
  check_true "note names the floor" (Ledger.note t <> "")

let test_gate_alloc () =
  (* Deterministic counts: a bare 2% step over the window median fires
     with no range test — this is the drift detector. *)
  let minors = [ 1000.0; 1000.0; 1000.0; 1025.0 ] in
  let l = history ~minors "e1" [ 1.0; 1.0; 1.0; 1.0 ] in
  check_verdict "2.5% alloc drift regresses" (Some Report.Regression)
    (find_trend (Ledger.gate l) ~metric:Report.Alloc "e1");
  let flat = history ~minors:[ 1000.0; 1000.0; 1005.0 ] "e1" [ 1.0; 1.0; 1.0 ] in
  check_verdict "0.5% stays within tolerance" (Some Report.Within_noise)
    (find_trend (Ledger.gate flat) ~metric:Report.Alloc "e1");
  (* The wall floor must NOT silence the alloc trend: counts are exact at
     any speed. *)
  let tiny = history ~minors:[ 1000.0; 1000.0; 1100.0 ] "e1" [ 0.001; 0.001; 0.001 ] in
  check_verdict "alloc gates under the wall floor" (Some Report.Regression)
    (find_trend (Ledger.gate tiny) ~metric:Report.Alloc "e1")

let test_gate_insufficient_and_window () =
  (* One entry: nothing to compare against; the verdict is None, never a
     failure. *)
  let l = history "e1" [ 1.0 ] in
  let t = find_trend (Ledger.gate l) ~metric:Report.Wall "e1" in
  check_verdict "single entry -> no verdict" None t;
  check_true "note says so" (Ledger.note t = "insufficient history");
  check_true "no regressions from it" (Ledger.regressions (Ledger.gate l) = []);
  (* The window truncates: an ancient slow sample outside the last 8
     entries must not absorb a fresh regression. Nine entries: the 9.0
     falls out and the candidate is out of the window's range. *)
  let steady = [ 1.0; 1.01; 0.99; 1.0; 1.02; 0.98 ] in
  check_int "window is 8 entries" 8 Ledger.window;
  let l = history "e1" ((9.0 :: 1.0 :: steady) @ [ 1.5 ]) in
  check_verdict "window truncates history" (Some Report.Regression)
    (find_trend (Ledger.gate l) ~metric:Report.Wall "e1");
  (* Eight entries: the 9.0 is inside the window and absorbs the spike. *)
  let l = history "e1" ((9.0 :: steady) @ [ 1.5 ]) in
  check_verdict "full history absorbs it" (Some Report.Within_noise)
    (find_trend (Ledger.gate l) ~metric:Report.Wall "e1");
  (* Experiments missing from the newest entry are not gated. *)
  let l = [ entry ~commit:"c0" [ exp_digest "gone" 1.0 ]; entry ~commit:"c1" [ exp_digest "e1" 1.0 ] ] in
  check_true "removed experiment not gated"
    (List.for_all (fun (t : Ledger.trend) -> t.Ledger.t_exp = "e1") (Ledger.gate l))

let test_gate_absent_newest () =
  (* Minor words read 1000, 1000, 5000 and the newest entry has no alloc
     block: the alloc series has no candidate, so it gets no verdict —
     never an older entry's value judged in its place. *)
  let line i ?minor () = entry ~commit:(Printf.sprintf "c%d" i) [ exp_digest ?minor "e" 1.0 ] in
  let l = [ line 0 ~minor:1000.0 (); line 1 ~minor:1000.0 (); line 2 ~minor:5000.0 (); line 3 () ] in
  let trends = Ledger.gate l in
  let alloc = find_trend trends ~metric:Report.Alloc "e" in
  check_verdict "absent alloc block -> no verdict" None alloc;
  Alcotest.(check string) "note says why" "absent from the newest entry" (Ledger.note alloc);
  check_true "no regressions" (Ledger.regressions trends = []);
  check_verdict "the wall series is still judged" (Some Report.Within_noise)
    (find_trend trends ~metric:Report.Wall "e")

let test_sparkline () =
  Alcotest.(check string) "scales to own range" "▁▄█" (Ledger.sparkline [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check string) "NaN renders as dot" "▁·█" (Ledger.sparkline [ 1.0; Float.nan; 3.0 ]);
  Alcotest.(check string) "flat series mid-level" "▄▄" (Ledger.sparkline [ 5.0; 5.0 ]);
  Alcotest.(check string) "all-NaN keeps the axis" "··" (Ledger.sparkline [ Float.nan; Float.nan ])

(* ---- Prof: trace analysis ---- *)

(* A tiny synthetic catapult document:
     main track (tid 0):  outer [0, 100us] containing inner [10, 40us]
     worker track (tid 1): chunk [0, 30us]
   Self times: outer 60us, inner 40us, chunk 30us. *)
let trace_doc ?(outer_dur = 100.0) ?(inner_dur = 40.0) () =
  let ev ?(args = []) name tid ts dur =
    Json.Obj
      ([
         ("name", Json.String name);
         ("ph", Json.String "X");
         ("ts", Json.Float ts);
         ("dur", Json.Float dur);
         ("pid", Json.Int 1);
         ("tid", Json.Int tid);
       ]
      @ match args with [] -> [] | a -> [ ("args", Json.Obj a) ])
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          [
            Json.Obj
              [
                ("name", Json.String "thread_name"); ("ph", Json.String "M");
                ("pid", Json.Int 1); ("tid", Json.Int 0);
              ];
            ev "outer" 0 0.0 outer_dur ~args:[ ("minor_words", Json.Int 1000) ];
            ev "inner" 0 10.0 inner_dur ~args:[ ("minor_words", Json.Int 400) ];
            ev "chunk" 1 0.0 30.0;
          ] );
    ]

let profile_of doc =
  match Prof.rows_of_json doc with
  | Error m -> Alcotest.failf "rows_of_json: %s" m
  | Ok rows -> Prof.profile rows

let find_agg ps name =
  match List.find_opt (fun (a : Prof.agg) -> a.Prof.a_name = name) ps with
  | Some a -> a
  | None -> Alcotest.failf "no aggregate for %s" name

let test_prof_profile () =
  let ps = profile_of (trace_doc ()) in
  let outer = find_agg ps "outer" and inner = find_agg ps "inner" in
  check_float "outer total" 100.0 outer.Prof.a_total_us;
  check_float "outer self excludes inner" 60.0 outer.Prof.a_self_us;
  check_float "outer self minor excludes inner" 600.0 outer.Prof.a_self_minor_words;
  check_float "inner self is its own dur" 40.0 inner.Prof.a_self_us;
  check_int "calls counted" 1 inner.Prof.a_calls;
  (* Metadata events are skipped, not mistaken for slices. *)
  check_int "three slices aggregated" 3 (List.length ps)

let test_prof_diff () =
  let old_ = profile_of (trace_doc ()) in
  let new_ = profile_of (trace_doc ~outer_dur:100000.0 ~inner_dur:90000.0 ()) in
  let ds = Prof.diff_profiles ~old_ ~new_ in
  (match ds with
  | first :: _ ->
      Alcotest.(check string) "worst regression leads" "inner" first.Prof.p_name;
      check_float "delta is new - old" (90000.0 -. 40.0) first.Prof.p_delta_self_us;
      check_true "flagged" (Prof.pdelta_regressed first)
  | [] -> Alcotest.fail "empty diff");
  let chunk = List.find (fun (d : Prof.pdelta) -> d.Prof.p_name = "chunk") ds in
  check_true "unchanged span not flagged" (not (Prof.pdelta_regressed chunk));
  (* Self-diff: every delta is 0 and nothing regresses. *)
  let self = Prof.diff_profiles ~old_ ~new_:old_ in
  check_true "self diff clean"
    (List.for_all (fun (d : Prof.pdelta) -> d.Prof.p_delta_self_us = 0.0) self);
  (* Old-only / new-only spans survive with the absent side at 0. *)
  let ds =
    Prof.diff_profiles ~old_ ~new_:(List.filter (fun a -> a.Prof.a_name <> "chunk") old_)
  in
  let gone = List.find (fun (d : Prof.pdelta) -> d.Prof.p_name = "chunk") ds in
  check_int "removed span keeps old calls" 1 gone.Prof.p_calls_old;
  check_int "removed span has no new calls" 0 gone.Prof.p_calls_new

let test_prof_rejects () =
  (match Prof.rows_of_json (Json.Obj [ ("foo", Json.Int 1) ]) with
  | Ok _ -> Alcotest.fail "accepted non-trace"
  | Error _ -> ());
  match
    Prof.rows_of_json
      (Json.Obj
         [
           ( "traceEvents",
             Json.List [ Json.Obj [ ("name", Json.String "x"); ("ph", Json.String "X") ] ] );
         ])
  with
  | Ok _ -> Alcotest.fail "accepted X event without ts/dur"
  | Error _ -> ()

let suite =
  [
    Alcotest.test_case "report digest" `Quick test_digest;
    Alcotest.test_case "wx-ledger/1 round trip" `Quick test_round_trip;
    Alcotest.test_case "pre-rate-removal line decodes" `Quick test_decode_pre_rate_removal;
    Alcotest.test_case "malformed entries rejected" `Quick test_codec_rejects;
    qcheck ~count:500 "ledger decoder: mutated lines" prop_entry_hostile
      (arbitrary_mutation valid_line);
    Alcotest.test_case "append dedups by commit" `Quick test_append_dedup;
    Alcotest.test_case "NDJSON file round trip" `Quick test_file_round_trip;
    Alcotest.test_case "wall trend verdicts" `Quick test_gate_wall;
    Alcotest.test_case "alloc trend verdicts" `Quick test_gate_alloc;
    Alcotest.test_case "insufficient history / window" `Quick test_gate_insufficient_and_window;
    Alcotest.test_case "series absent from the newest entry" `Quick test_gate_absent_newest;
    Alcotest.test_case "sparkline rendering" `Quick test_sparkline;
    Alcotest.test_case "prof: containment profile" `Quick test_prof_profile;
    Alcotest.test_case "prof: differential profile" `Quick test_prof_diff;
    Alcotest.test_case "prof: malformed traces rejected" `Quick test_prof_rejects;
  ]
