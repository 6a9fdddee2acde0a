(* The Memgc allocation-observability layer: spans see a known-size
   allocation, counters are monotone and diff cleanly, disabled mode
   performs literally zero Gc reads (the zero-cost contract), the pool
   attributes worker allocation, deltas over an identical workload are
   deterministic (what the bench alloc gate relies on), and the major-cycle
   alarm fires. *)

module Json = Wx_obs.Json
module Metrics = Wx_obs.Metrics
module Memgc = Wx_obs.Memgc
module Span = Wx_obs.Span
module Pool = Wx_par.Pool
module Trace_export = Wx_obs.Trace_export
open Common

(* Every test leaves both systems disabled so the rest of the suite keeps
   its zero-cost default. *)
let with_memgc ?(metrics = false) f =
  Memgc.enable ();
  if metrics then Metrics.enable ();
  Metrics.reset ();
  Span.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.reset ();
      Span.reset ();
      Metrics.disable ();
      Memgc.disable ())
    f

(* A 1KiB bytes block is 130 words on 64-bit (1 header + 129 payload);
   opaque_identity keeps the allocation from being optimized away. *)
let block_words = 1 + ((1024 / (Sys.word_size / 8)) + 1)

let burn blocks =
  for _ = 1 to blocks do
    ignore (Sys.opaque_identity (Bytes.create 1024))
  done

let test_span_attribution () =
  with_memgc (fun () ->
      let blocks = 1000 in
      Span.with_ ~name:"test.memgc.alloc" (fun () -> burn blocks);
      match Span.root_spans () with
      | [ s ] ->
          check_true "span name" (s.Span.name = "test.memgc.alloc");
          let expected = blocks * block_words in
          check_true "span sees at least the burned words" (s.Span.minor_words >= expected);
          (* Loose upper bound: the measurement overhead itself is well
             under one extra block per burned block. *)
          check_true "span attribution is not wildly inflated"
            (s.Span.minor_words < 2 * expected);
          check_true "no children, so self = total"
            (Span.self_minor_words s = s.Span.minor_words)
      | l -> Alcotest.failf "expected 1 root span, got %d" (List.length l))

let test_self_vs_rollup () =
  with_memgc (fun () ->
      Span.with_ ~name:"outer" (fun () ->
          burn 500;
          Span.with_ ~name:"inner" (fun () -> burn 1500));
      match Span.root_spans () with
      | [ outer ] ->
          let inner = match Span.children outer with [ i ] -> i | _ -> Alcotest.fail "no inner" in
          check_true "outer total covers inner" (outer.Span.minor_words >= inner.Span.minor_words);
          check_true "inner allocated more than outer's own code"
            (inner.Span.minor_words > Span.self_minor_words outer);
          check_true "rollup = inner total" (Span.rollup_minor_words outer = inner.Span.minor_words)
      | l -> Alcotest.failf "expected 1 root span, got %d" (List.length l))

let test_monotone_and_diff () =
  with_memgc (fun () ->
      let a = Memgc.read () in
      burn 100;
      let b = Memgc.read () in
      check_true "minor words monotone" (b.Memgc.minor_words >= a.Memgc.minor_words);
      check_true "collections monotone"
        (b.Memgc.minor_collections >= a.Memgc.minor_collections
        && b.Memgc.major_collections >= a.Memgc.major_collections);
      let d = Memgc.diff ~before:a ~after:b in
      check_true "delta covers the burn" (d.Memgc.minor_words >= 100 * block_words);
      check_true "delta counters non-negative"
        (d.Memgc.promoted_words >= 0 && d.Memgc.major_words >= 0 && d.Memgc.compactions >= 0);
      check_int "top_heap is a level, not a rate" b.Memgc.top_heap_words d.Memgc.top_heap_words)

let test_disabled_is_free () =
  (* Metrics stay on so spans and the pool still run their instrumented
     paths — the claim under test is that none of them touch the Gc. *)
  Metrics.enable ();
  Metrics.reset ();
  Span.reset ();
  Memgc.disable ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.reset ();
      Span.reset ();
      Metrics.disable ())
    (fun () ->
      let before = Memgc.gc_read_count () in
      check_true "read is zero" (Memgc.read () = Memgc.zero);
      check_float "own words is zero" 0.0 (Memgc.own_minor_words ());
      Span.with_ ~name:"test.memgc.disabled" (fun () -> burn 50);
      let sum =
        Pool.parallel_reduce_ranges ~jobs:2 ~range:1 ~n:64 ~init:0
          ~map:(fun ~lo ~hi:_ -> ignore (Sys.opaque_identity (Bytes.create 64)); lo)
          ~combine:( + ) ()
      in
      check_int "pool still correct" (64 * 63 / 2) sum;
      check_int "zero Gc reads while disabled" before (Memgc.gc_read_count ());
      (match Span.root_spans () with
      | [ s ] -> check_int "span records no words while disabled" 0 s.Span.minor_words
      | _ -> Alcotest.fail "span missing"))

(* Trace args carry the attribution: each chunk slice its own minor-word
   delta, each helper's worker slice the delta of its whole run. *)
let test_pool_worker_attribution () =
  with_memgc (fun () ->
      Trace_export.reset ();
      Trace_export.enable ();
      Fun.protect
        ~finally:(fun () ->
          Trace_export.disable ();
          Trace_export.reset ())
        (fun () ->
          let sum =
            Pool.parallel_reduce_ranges ~jobs:2 ~range:8 ~n:64 ~init:0
              ~map:(fun ~lo ~hi ->
                let acc = ref 0 in
                for i = lo to hi - 1 do
                  ignore (Sys.opaque_identity (Bytes.create 1024));
                  acc := !acc + i
                done;
                !acc)
              ~combine:( + ) ()
          in
          check_int "reduce correct under attribution" (64 * 63 / 2) sum;
          let events =
            match Json.member "traceEvents" (Trace_export.to_json ()) with
            | Some (Json.List evs) -> evs
            | _ -> Alcotest.fail "no traceEvents list"
          in
          let words name =
            List.filter_map
              (fun ev ->
                if Json.member "name" ev <> Some (Json.String name) then None
                else
                  let w = Option.bind (Json.member "args" ev) (Json.member "minor_words") in
                  let tid = Option.bind (Json.member "tid" ev) Json.to_int_opt in
                  match (Option.bind w Json.to_float_opt, tid) with
                  | Some w, Some tid -> Some (tid, w)
                  | _ -> Alcotest.failf "%s slice without minor_words" name)
              events
          in
          let chunks = words "chunk" and workers = words "worker" in
          check_int "one slice per chunk" 8 (List.length chunks);
          (* 64 iterations x one 1KiB block each, split across chunks. *)
          let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 chunks in
          check_true "chunks account for the map's allocation"
            (total >= float_of_int (64 * block_words));
          List.iter
            (fun (tid, w) ->
              let own =
                List.fold_left (fun acc (t, c) -> if t = tid then acc +. c else acc) 0.0 chunks
              in
              check_true "workers cover their chunks" (w >= own *. 0.99))
            workers))

(* Memgc.read is domain-local, so a caller's reading sees its helpers'
   allocation only through the credit each helper pushes at exit. Tasks
   sleep so that the helpers take their share of the work. *)
let test_pool_credit_covers_helpers () =
  with_memgc (fun () ->
      let n = 32 in
      let g0 = Memgc.read () in
      let sum =
        Pool.parallel_reduce_ranges ~jobs:4 ~range:1 ~n ~init:0
          ~map:(fun ~lo ~hi:_ ->
            Unix.sleepf 0.001;
            ignore (Sys.opaque_identity (Bytes.create 1024));
            lo)
          ~combine:( + ) ()
      in
      let g1 = Memgc.read () in
      check_int "reduce correct" (n * (n - 1) / 2) sum;
      check_true "caller's reading covers every task's block"
        ((Memgc.diff ~before:g0 ~after:g1).Memgc.minor_words >= n * block_words))

let test_delta_determinism () =
  with_memgc (fun () ->
      let workload () =
        Pool.parallel_reduce_ranges ~jobs:2 ~range:8 ~n:256 ~init:0
          ~map:(fun ~lo ~hi ->
            for _ = lo to hi - 1 do
              ignore (Sys.opaque_identity (Bytes.create 256))
            done;
            lo)
          ~combine:( + ) ()
      in
      let measure () =
        let g0 = Memgc.read () in
        ignore (workload ());
        let g1 = Memgc.read () in
        (Memgc.diff ~before:g0 ~after:g1).Memgc.minor_words
      in
      (* Warm-up pays one-time costs (DLS shards, lazy init) outside the
         measured window, mirroring what bench record's repeat loop sees. *)
      ignore (measure ());
      let a = measure () and b = measure () in
      check_int "identical workload, identical minor words" a b)

let test_alarm () =
  with_memgc (fun () ->
      Memgc.install_alarm ();
      Fun.protect ~finally:Memgc.remove_alarm (fun () ->
          let before = Memgc.major_cycles () in
          Gc.full_major ();
          Gc.full_major ();
          check_true "alarm saw the forced major cycles" (Memgc.major_cycles () > before)))

let test_codec () =
  let c =
    {
      Memgc.minor_words = 650_489;
      promoted_words = 1_234;
      major_words = 2_345;
      minor_collections = 7;
      major_collections = 2;
      compactions = 1;
      forced_major_collections = 1;
      top_heap_words = 262_144;
    }
  in
  (match Memgc.of_json (Memgc.to_json c) with
  | Some d -> check_true "codec round trip" (d = c)
  | None -> Alcotest.fail "round trip failed");
  check_true "garbage decodes to None" (Memgc.of_json (Json.String "nope") = None);
  check_true "render mentions the minor count"
    (let r = Memgc.render c in
     let has_sub needle hay =
       let nl = String.length needle and hl = String.length hay in
       let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
       go 0
     in
     has_sub "650489" r)

let suite =
  [
    Alcotest.test_case "span sees a known-size allocation" `Quick test_span_attribution;
    Alcotest.test_case "self vs rollup attribution" `Quick test_self_vs_rollup;
    Alcotest.test_case "counters monotone, diff sane" `Quick test_monotone_and_diff;
    Alcotest.test_case "disabled mode performs zero Gc reads" `Quick test_disabled_is_free;
    Alcotest.test_case "pool attributes worker allocation" `Quick test_pool_worker_attribution;
    Alcotest.test_case "pool credit covers helper allocs" `Quick test_pool_credit_covers_helpers;
    Alcotest.test_case "deltas deterministic over identical work" `Quick test_delta_determinism;
    Alcotest.test_case "major-cycle alarm fires" `Quick test_alarm;
    Alcotest.test_case "counters codec round trip" `Quick test_codec;
  ]
