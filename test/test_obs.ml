(* The wx_obs observability layer: metrics semantics on/off, span nesting,
   JSON round-trips, and NDJSON well-formedness through our own parser. *)

module Json = Wx_obs.Json
module Metrics = Wx_obs.Metrics
module Span = Wx_obs.Span
module Sink = Wx_obs.Sink
open Common

(* Each test starts from a clean, enabled registry and leaves the registry
   disabled so the rest of the suite keeps its zero-cost default. *)
let with_metrics f =
  Metrics.enable ();
  Metrics.reset ();
  Span.reset ();
  Fun.protect ~finally:(fun () ->
      Metrics.reset ();
      Span.reset ();
      Metrics.disable ())
    f

let counter_value name snap =
  match Json.member "counters" snap with
  | Some cs -> ( match Json.member name cs with Some j -> Json.to_int_opt j | None -> None)
  | None -> None

let test_counter_semantics () =
  with_metrics (fun () ->
      let c = Metrics.counter "test.obs.counter" in
      Metrics.incr c;
      Metrics.incr c;
      Metrics.add c 5;
      check_int "enabled counts" 7
        (Option.value ~default:(-1) (counter_value "test.obs.counter" (Metrics.snapshot ())));
      (* Same name interns to the same instrument. *)
      Metrics.incr (Metrics.counter "test.obs.counter");
      check_int "interned" 8
        (Option.value ~default:(-1) (counter_value "test.obs.counter" (Metrics.snapshot ())));
      (* Disabled: operations are dropped, not queued. *)
      Metrics.disable ();
      Metrics.incr c;
      Metrics.add c 100;
      Metrics.enable ();
      check_int "disabled drops" 8
        (Option.value ~default:(-1) (counter_value "test.obs.counter" (Metrics.snapshot ())));
      (* Reset zeroes and the zeroed counter leaves the snapshot. *)
      Metrics.reset ();
      check_true "reset clears"
        (counter_value "test.obs.counter" (Metrics.snapshot ()) = None))

let test_histogram_and_quantiles () =
  with_metrics (fun () ->
      let h = Metrics.histogram "test.obs.hist" in
      List.iter (fun v -> Metrics.observe h v) [ 1.0; 2.0; 4.0; 8.0; 1024.0 ];
      let snap = Metrics.snapshot () in
      let hj =
        match Json.member "histograms" snap with
        | Some hs -> Option.get (Json.member "test.obs.hist" hs)
        | None -> Alcotest.fail "no histograms section"
      in
      let fget k = Option.get (Json.to_float_opt (Option.get (Json.member k hj))) in
      check_int "count" 5 (Option.get (Json.to_int_opt (Option.get (Json.member "count" hj))));
      check_float "sum" 1039.0 (fget "sum");
      check_float "min" 1.0 (fget "min");
      check_float "max" 1024.0 (fget "max");
      (* Quantiles are bucket estimates: p50 must sit within the observed
         range and below the top bucket; p99 lands in the 1024 bucket. *)
      let p50 = Metrics.quantile h 0.50 and p99 = Metrics.quantile h 0.99 in
      check_true "p50 in range" (p50 >= 1.0 && p50 <= 8.0);
      check_true "p99 near max" (p99 >= 512.0 && p99 <= 1024.0);
      check_true "empty quantile is nan"
        (Float.is_nan (Metrics.quantile (Metrics.histogram "test.obs.empty") 0.5)))

let test_timer_semantics () =
  with_metrics (fun () ->
      let t = Metrics.timer "test.obs.work" in
      let r = Metrics.time t (fun () -> Sys.opaque_identity (List.init 100 Fun.id)) in
      check_int "result passes through" 100 (List.length r);
      (* Manual start/stop pairs accumulate into the same histogram. *)
      let stamp = Metrics.start () in
      check_true "stamp is live" (stamp > 0);
      Metrics.stop t stamp;
      let snap = Metrics.snapshot () in
      let tj =
        match Json.member "timers" snap with
        | Some ts -> Option.get (Json.member "test.obs.work" ts)
        | None -> Alcotest.fail "no timers section"
      in
      check_int "two samples" 2 (Option.get (Json.to_int_opt (Option.get (Json.member "count" tj))));
      check_true "total_ms present" (Json.member "total_ms" tj <> None);
      (* Disabled: start returns the 0 sentinel and stop on it is a no-op. *)
      Metrics.disable ();
      check_int "disabled stamp" 0 (Metrics.start ());
      Metrics.stop t 0;
      Metrics.enable ();
      let snap2 = Metrics.snapshot () in
      let tj2 =
        Option.get (Json.member "test.obs.work" (Option.get (Json.member "timers" snap2)))
      in
      check_int "still two" 2 (Option.get (Json.to_int_opt (Option.get (Json.member "count" tj2)))))

let test_span_nesting () =
  with_metrics (fun () ->
      let burn () = ignore (Sys.opaque_identity (List.init 1000 Fun.id)) in
      Span.with_ ~name:"outer" (fun () ->
          Span.with_ ~name:"inner" burn;
          (* Re-entry under the same parent accumulates into one node. *)
          Span.with_ ~name:"inner" burn;
          burn ());
      match Span.root_spans () with
      | [ root ] ->
          check_true "root name" (root.Span.name = "outer");
          check_int "root calls" 1 root.Span.calls;
          (match Span.children root with
          | [ inner ] ->
              check_true "inner name" (inner.Span.name = "inner");
              check_int "inner accumulates calls" 2 inner.Span.calls;
              check_true "child within parent" (inner.Span.dur_ns <= root.Span.dur_ns);
              check_true "self+rollup = total"
                (Span.self_ns root + Span.rollup_ns root = root.Span.dur_ns)
          | l -> Alcotest.failf "expected 1 child, got %d" (List.length l))
      | l -> Alcotest.failf "expected 1 root, got %d" (List.length l))

let test_span_exception_safety () =
  with_metrics (fun () ->
      (try Span.with_ ~name:"boom" (fun () -> failwith "boom") with Failure _ -> ());
      (* The span stack must have unwound: a new root is a sibling, not a
         child of the failed span. *)
      Span.with_ ~name:"after" (fun () -> ());
      let names = List.map (fun s -> s.Span.name) (Span.root_spans ()) in
      check_true "both are roots" (List.mem "boom" names && List.mem "after" names))

let test_json_round_trip () =
  let doc =
    Json.Obj
      [
        ("s", Json.String "hi \"there\"\n\t");
        ("i", Json.Int (-42));
        ("f", Json.Float 2.5);
        ("b", Json.Bool true);
        ("nothing", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.List []; Json.Obj [] ]);
      ]
  in
  match Json.of_string (Json.to_string doc) with
  | parsed ->
      check_true "round trip" (parsed = doc);
      check_true "pretty round trip" (Json.of_string (Json.to_string_pretty doc) = doc);
      check_true "nan renders as null" (Json.to_string (Json.Float Float.nan) = "null");
      check_true "rejects garbage" (Json.of_string_opt "{\"a\":" = None);
      check_true "rejects trailing" (Json.of_string_opt "1 2" = None)
  | exception Json.Parse_error m -> Alcotest.failf "round trip failed to parse: %s" m

let test_sink_ndjson_well_formed () =
  let path = Filename.temp_file "wx_obs_test" ".ndjson" in
  Fun.protect ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let sink = Sink.make oc in
      Sink.with_sink sink (fun () ->
          check_true "active inside" (Sink.active ());
          Sink.event "alpha" [ ("x", Json.Int 1); ("note", Json.String "a \"quoted\" λ") ];
          Sink.event "beta" [ ("holds", Json.Bool false); ("v", Json.Float 0.5) ];
          Sink.event "gamma" []);
      check_true "inactive outside" (not (Sink.active ()));
      Sink.event "dropped" [ ("x", Json.Int 9) ];
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      check_int "one line per event" 3 (List.length lines);
      let parsed =
        List.map
          (fun l ->
            match Json.of_string l with
            | j -> j
            | exception Json.Parse_error m -> Alcotest.failf "bad NDJSON line %S: %s" l m)
          lines
      in
      let names =
        List.map
          (fun j -> Option.get (Json.to_string_opt (Option.get (Json.member "event" j))))
          parsed
      in
      check_true "event names in order" (names = [ "alpha"; "beta"; "gamma" ]);
      let alpha = List.hd parsed in
      check_int "fields survive" 1
        (Option.get (Json.to_int_opt (Option.get (Json.member "x" alpha)))))

let test_nan_renders_as_dash () =
  with_metrics (fun () ->
      let g = Metrics.gauge "test.obs.hole" in
      Metrics.set g Float.nan;
      (* An empty histogram's quantiles are NaN too; make one visible. *)
      let h = Metrics.histogram "test.obs.lonely" in
      Metrics.observe h Float.nan;
      let out = Metrics.render () in
      let contains needle hay =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      check_true "gauge line present" (contains "test.obs.hole" out);
      check_true "no literal nan in render"
        (not (contains "nan" (String.lowercase_ascii out))))

let test_sink_flush_installed () =
  let path = Filename.temp_file "wx_obs_flush" ".ndjson" in
  Fun.protect ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let sink = Sink.make oc in
      Sink.install sink;
      Fun.protect ~finally:Sink.uninstall (fun () ->
          Sink.event "one" [ ("x", Json.Int 1) ];
          Sink.event "two" [ ("x", Json.Int 2) ];
          (* Under the batch threshold, so the channel may still hold the
             lines; flush_installed is the interrupted-run path. *)
          Sink.flush_installed ();
          let ic = open_in path in
          let n = ref 0 in
          (try
             while true do
               ignore (input_line ic);
               incr n
             done
           with End_of_file -> close_in ic);
          check_int "flush_installed drains the batch" 2 !n;
          (* A second flush on the same sink is harmless. *)
          Sink.flush_installed ());
      close_out oc;
      (* And flushing with no sink installed is a no-op, not an error. *)
      Sink.flush_installed ())

(* The tentpole cross-check: Trace.stalled_rounds must agree with the
   per-round records the simulator now produces, and the process-wide
   collision counter must equal the trace's own tally, on the C⁺ flooding
   stall where rounds transmit without informing anyone. *)
let test_trace_agrees_with_metrics () =
  with_metrics (fun () ->
      let g = Wx_constructions.Cplus.create 10 in
      let t =
        Wx_radio.Trace.run ~max_rounds:50 g
          ~source:(Wx_constructions.Cplus.source g) Wx_radio.Sim_csr.flood (rng ~salt:870 ())
      in
      let from_rounds =
        List.length
          (List.filter
             (fun r -> r.Wx_radio.Trace.transmitters > 0 && r.Wx_radio.Trace.newly_informed = 0)
             t.Wx_radio.Trace.rounds)
      in
      check_int "stalled_rounds = per-round recount" from_rounds
        (Wx_radio.Trace.stalled_rounds t);
      check_true "the stall is real" (from_rounds >= 45);
      let snap = Metrics.snapshot () in
      let trace_collisions =
        List.fold_left
          (fun acc r -> acc + r.Wx_radio.Trace.collisions_this_round)
          0 t.Wx_radio.Trace.rounds
      in
      check_int "radio.collisions counter = trace tally" trace_collisions
        (Option.value ~default:(-1) (counter_value "radio.collisions" snap));
      check_int "radio.stalled_rounds counter agrees" from_rounds
        (Option.value ~default:(-1) (counter_value "radio.stalled_rounds" snap)))

let suite =
  [
    Alcotest.test_case "counter semantics on/off" `Quick test_counter_semantics;
    Alcotest.test_case "histogram + quantiles" `Quick test_histogram_and_quantiles;
    Alcotest.test_case "timer semantics" `Quick test_timer_semantics;
    Alcotest.test_case "span nesting + rollup" `Quick test_span_nesting;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safety;
    Alcotest.test_case "json round trip" `Quick test_json_round_trip;
    Alcotest.test_case "sink NDJSON well-formed" `Quick test_sink_ndjson_well_formed;
    Alcotest.test_case "nan renders as dash" `Quick test_nan_renders_as_dash;
    Alcotest.test_case "sink flush_installed" `Quick test_sink_flush_installed;
    Alcotest.test_case "trace agrees with metrics" `Quick test_trace_agrees_with_metrics;
  ]
