(* The live ops surface: Prometheus text well-formedness, agreement of
   the page with the registry snapshot, the request-line decoder, the HTTP
   round trip on an ephemeral port, and scraping while the pool is hot
   (the concurrent-snapshot contract). *)

module Expose = Wx_obs.Expose
module Metrics = Wx_obs.Metrics
module Json = Wx_obs.Json
module Pool = Wx_par.Pool
open Common

(* Minimal HTTP/1.0 client: sends [request] verbatim (default a GET of
   [path]) and returns the status code and body. Never raises. *)
let http_request ~port ?request path =
  let request =
    Option.value request
      ~default:(Printf.sprintf "GET %s HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n" path)
  in
  match
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.setsockopt_float sock Unix.SO_RCVTIMEO 5.0;
        Unix.setsockopt_float sock Unix.SO_SNDTIMEO 5.0;
        Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        ignore (Unix.write_substring sock request 0 (String.length request));
        let buf = Buffer.create 4096 in
        let chunk = Bytes.create 4096 in
        let rec drain () =
          let n = Unix.read sock chunk 0 (Bytes.length chunk) in
          if n > 0 then begin
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
          end
        in
        drain ();
        Buffer.contents buf)
  with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | resp -> (
      let sep = "\r\n\r\n" in
      let rec find i =
        if i + 4 > String.length resp then None
        else if String.sub resp i 4 = sep then Some i
        else find (i + 1)
      in
      match (find 0, String.split_on_char ' ' resp) with
      | Some i, _ :: code :: _ -> (
          match int_of_string_opt code with
          | Some c -> Ok (c, String.sub resp (i + 4) (String.length resp - i - 4))
          | None -> Error "malformed HTTP status line")
      | _ -> Error "malformed HTTP response")

(* A GET that must answer 200; the body, or the failure as text. *)
let http_get ~port ~path =
  match http_request ~port path with
  | Ok (200, body) -> Ok body
  | Ok (code, _) -> Error (Printf.sprintf "HTTP %d" code)
  | Error _ as e -> e

let with_metrics f =
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.reset ();
      Metrics.disable ())
    f

(* ---- Prometheus text grammar ----

   One line is either a comment/TYPE line, blank, or
   [name{labels} value]: name in [a-zA-Z_:][a-zA-Z0-9_:]*, optional
   {..} label block, then one float literal (NaN and signed Inf allowed).
   This is the same shape the CI smoke step asserts with awk. *)

let is_name_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
  || c = ':'

let valid_name s =
  String.length s > 0
  && (not (s.[0] >= '0' && s.[0] <= '9'))
  && String.for_all is_name_char s

let valid_value s =
  s = "NaN" || s = "+Inf" || s = "-Inf" || Option.is_some (float_of_string_opt s)

let split_sample line =
  (* name{...} value | name value *)
  match String.index_opt line ' ' with
  | None -> None
  | Some _ -> (
      let name_end =
        match String.index_opt line '{' with
        | Some i -> i
        | None -> String.index line ' '
      in
      let name = String.sub line 0 name_end in
      match String.rindex_opt line ' ' with
      | None -> None
      | Some sp ->
          let value = String.sub line (sp + 1) (String.length line - sp - 1) in
          (* A label block, if present, must close right before the value. *)
          let labels_ok =
            match String.index_opt line '{' with
            | None -> sp = name_end
            | Some i -> i < sp && line.[sp - 1] = '}'
          in
          if labels_ok then Some (name, value) else None)

let check_prometheus_grammar page =
  List.iter
    (fun line ->
      if line <> "" && not (String.length line >= 1 && line.[0] = '#') then
        match split_sample line with
        | None -> Alcotest.failf "unparseable exposition line: %S" line
        | Some (name, value) ->
            if not (valid_name name) then Alcotest.failf "bad metric name in %S" line;
            if not (valid_value value) then Alcotest.failf "bad sample value in %S" line)
    (String.split_on_char '\n' page)

let test_prometheus_well_formed () =
  with_metrics (fun () ->
      let c = Metrics.counter "test.expose.count" in
      let g = Metrics.gauge "test.expose.gap" in
      let h = Metrics.histogram "test.expose.sizes" in
      Metrics.add c 7;
      Metrics.set g Float.nan;
      List.iter (Metrics.observe h) [ 1.0; 2.0; 400.0 ];
      let page = Expose.prometheus_page ~uptime_s:1.5 () in
      check_prometheus_grammar page;
      let lines = String.split_on_char '\n' page in
      let has needle = List.exists (fun l -> l = needle) lines in
      check_true "counter sample" (has "wx_test_expose_count 7");
      check_true "NaN gauge renders as NaN literal" (has "wx_test_expose_gap NaN");
      check_true "summary count" (has "wx_test_expose_sizes_count 3");
      check_true "uptime gauge" (has "wx_uptime_seconds 1.5");
      check_true "build info labeled"
        (List.exists
           (fun l ->
             String.length l > 14
             && String.sub l 0 14 = "wx_build_info{"
             && String.sub l (String.length l - 2) 2 = " 1")
           lines);
      (* Every metric family is declared exactly once. *)
      let types =
        List.filter_map
          (fun l ->
            if String.length l > 7 && String.sub l 0 7 = "# TYPE " then Some l else None)
          lines
      in
      check_int "no duplicate TYPE declarations"
        (List.length types)
        (List.length (List.sort_uniq compare types)))

(* The text page renders the registry: every counter and gauge in the
   snapshot must appear in it with the same value (modulo name
   sanitization). *)
let test_json_text_agreement () =
  with_metrics (fun () ->
      let c = Metrics.counter "test.expose.agree" in
      let g = Metrics.gauge "test.expose.level" in
      Metrics.add c 42;
      Metrics.set g 2.5;
      let text = Expose.prometheus_page ~uptime_s:0.5 () in
      let metrics = Metrics.snapshot () in
      let lines = String.split_on_char '\n' text in
      let sanitize name =
        let s =
          String.map (fun ch -> if is_name_char ch && ch <> ':' then ch else '_') name
        in
        if String.length s >= 3 && String.sub s 0 3 = "wx_" then s else "wx_" ^ s
      in
      let text_value name =
        List.find_map
          (fun l ->
            match split_sample l with
            | Some (n, v) when n = name -> Some v
            | _ -> None)
          lines
      in
      let check_section section expected_of_json =
        match Json.member section metrics with
        | Some (Json.Obj kvs) ->
            List.iter
              (fun (k, v) ->
                match expected_of_json v with
                | None -> ()
                | Some expected -> (
                    match text_value (sanitize k) with
                    | None -> Alcotest.failf "%s %s missing from text page" section k
                    | Some got ->
                        check_float
                          (Printf.sprintf "%s %s agrees" section k)
                          expected
                          (float_of_string got)))
              kvs
        | _ -> Alcotest.failf "snapshot lacks %s" section
      in
      check_section "counters" (fun v -> Json.to_float_opt v);
      check_section "gauges" (fun v ->
          (* NaN gauges agree by definition (both render a missing-value
             spelling). *)
          match Json.to_float_opt v with
          | Some f when Float.is_finite f -> Some f
          | _ -> None))

(* The request line, decoded without a socket. *)
let test_request_path_pinned () =
  let check name want req =
    Alcotest.(check bool) name true (Expose.request_path req = want)
  in
  check "CRLF GET" (Ok "/metrics") "GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n";
  check "query string dropped" (Ok "/metrics") "GET /metrics?x=1 HTTP/1.0\r\n\r\n";
  check "bare LF, no version" (Ok "/metrics") "GET /metrics\n";
  check "unterminated line" (Ok "/json") "GET /json";
  check "HEAD is 405" (Error `Method_not_allowed) "HEAD /metrics HTTP/1.0\r\n\r\n";
  check "POST is 405" (Error `Method_not_allowed) "POST /metrics HTTP/1.1\r\n";
  check "empty request" (Error `Bad_request) "";
  check "method alone" (Error `Bad_request) "GET\r\n";
  check "relative target" (Error `Bad_request) "GET metrics HTTP/1.0\r\n";
  check "lower-case method" (Error `Bad_request) "get /metrics HTTP/1.0\r\n";
  check "target on the second line" (Error `Bad_request) "GET\n/metrics"

(* Arbitrary bytes, half drawn from request-line syntax: the decoder never
   raises, and answers Ok only for a "GET /..." line whose path carries no
   query, separator or line break. *)
let arbitrary_request =
  let fragments =
    [ "GET"; "HEAD"; "POST"; "get"; " "; "/"; "/metrics"; "?"; "x=1"; "\r"; "\n"; "\r\n";
      "HTTP/1.0"; "" ]
  in
  QCheck.make ~print:String.escaped
    QCheck.Gen.(
      map (String.concat "")
        (list_size (int_range 0 8)
           (oneof [ oneofl fragments; map (String.make 1) char ])))

let prop_request_path req =
  match Expose.request_path req with
  | exception _ -> false
  | Error (`Bad_request | `Method_not_allowed) -> true
  | Ok path ->
      String.length req >= 4
      && String.sub req 0 4 = "GET "
      && String.length path > 0
      && path.[0] = '/'
      && not (String.exists (fun c -> c = '?' || c = ' ' || c = '\r' || c = '\n') path)

let test_http_roundtrip () =
  with_metrics (fun () ->
      let c = Metrics.counter "test.expose.http" in
      Metrics.add c 3;
      match Expose.start ~port:0 () with
      | Error msg -> Alcotest.failf "start: %s" msg
      | Ok srv ->
          Fun.protect ~finally:(fun () -> Expose.stop srv)
            (fun () ->
              let port = Expose.port srv in
              check_true "ephemeral port assigned" (port > 0);
              (match http_get ~port ~path:"/metrics" with
              | Error msg -> Alcotest.failf "GET /metrics: %s" msg
              | Ok body ->
                  check_prometheus_grammar body;
                  check_true "instrument visible over HTTP"
                    (List.mem "wx_test_expose_http 3" (String.split_on_char '\n' body)));
              (match http_get ~port ~path:"/metrics?x=1" with
              | Error msg -> Alcotest.failf "GET /metrics?x=1: %s" msg
              | Ok body -> check_prometheus_grammar body);
              (* The scrape counter is monotone across scrapes. *)
              let scrapes () =
                match http_get ~port ~path:"/metrics" with
                | Error msg -> Alcotest.failf "GET /metrics: %s" msg
                | Ok body ->
                    List.find_map
                      (fun l ->
                        match split_sample l with
                        | Some ("wx_expose_scrapes", v) -> int_of_string_opt v
                        | _ -> None)
                      (String.split_on_char '\n' body)
                    |> Option.get
              in
              let s1 = scrapes () in
              let s2 = scrapes () in
              check_true "scrape counter monotone" (s2 > s1);
              let status ?request path =
                match http_request ~port ?request path with
                | Ok (code, _) -> code
                | Error msg -> Alcotest.failf "request %s: %s" path msg
              in
              check_int "unknown path is a clean 404" 404 (status "/nope");
              check_int "/json is gone" 404 (status "/json");
              check_int "HEAD is a 405" 405
                (status ~request:"HEAD /metrics HTTP/1.0\r\n\r\n" "/metrics");
              check_int "garbage is a 400" 400 (status ~request:"\x00\x01\r\n\r\n" "-"));
          (* Idempotent stop: the Fun.protect above already stopped it. *)
          Expose.stop srv;
          check_true "connection refused after stop"
            (match http_get ~port:(Expose.port srv) ~path:"/metrics" with
            | Error _ -> true
            | Ok _ -> false))

(* Scrapes racing live pool workers: a dedicated domain hammers the
   renderers while a 4-job pool reduction observes histograms. Every page
   must stay well-formed (the hardened Metrics.merged contract) and the
   reduction's value must be exactly the sequential one — exposition never
   perturbs results. *)
let test_concurrent_scrape_during_pool_run () =
  with_metrics (fun () ->
      let h = Metrics.histogram "test.expose.hot" in
      let stop = Atomic.make false in
      let pages = Atomic.make 0 in
      let exited = Atomic.make false in
      let scraper =
        Domain.spawn (fun () ->
            Fun.protect
              ~finally:(fun () -> Atomic.set exited true)
              (fun () ->
                while not (Atomic.get stop) do
                  let page = Expose.prometheus_page ~uptime_s:0.1 () in
                  check_prometheus_grammar page;
                  Atomic.incr pages
                done))
      in
      (* Start the pool only once the scraper is rendering: on a loaded
         machine the new domain can otherwise first run after the whole
         reduction is over. *)
      while Atomic.get pages = 0 && not (Atomic.get exited) do
        Domain.cpu_relax ()
      done;
      let n = 20_000 in
      let got =
        Pool.parallel_reduce_ranges ~jobs:4 ~range:64 ~n ~init:0
          ~map:(fun ~lo ~hi ->
            let acc = ref 0 in
            for i = lo to hi - 1 do
              Metrics.observe h (float_of_int ((i mod 11) + 1));
              acc := !acc + i
            done;
            !acc)
          ~combine:( + ) ()
      in
      Atomic.set stop true;
      Domain.join scraper;
      check_int "reduction unperturbed by scraping" (n * (n - 1) / 2) got;
      check_true "scraper made progress" (Atomic.get pages > 0);
      (* Quiescent now: the merged histogram holds every observation. *)
      let page = Expose.prometheus_page ~uptime_s:0.2 () in
      check_true "final count exact"
        (List.mem
           (Printf.sprintf "wx_test_expose_hot_count %d" n)
           (String.split_on_char '\n' page)))

(* Pool runs under an enabled registry publish their run counters and
   timers; the utilization total is the bench report's, not a gauge. *)
let test_pool_publishes_counters () =
  with_metrics (fun () ->
      ignore
        (Pool.parallel_reduce_ranges ~jobs:2 ~range:32 ~n:4096 ~init:0
           ~map:(fun ~lo ~hi:_ -> lo)
           ~combine:( + ) ());
      let snap = Metrics.snapshot () in
      let names section =
        match Json.member section snap with Some (Json.Obj kvs) -> List.map fst kvs | _ -> []
      in
      check_true "run counter" (List.mem "pool.runs" (names "counters"));
      check_true "jobs gauge" (List.mem "pool.jobs" (names "gauges"));
      check_true "join-wait timer" (List.mem "pool.join_wait" (names "timers"));
      List.iter
        (fun section ->
          List.iter
            (fun name ->
              check_true
                (Printf.sprintf "no %s %s" section name)
                (not (String.starts_with ~prefix:"pool.util." name)))
            (names section))
        [ "counters"; "gauges"; "histograms"; "timers" ];
      List.iter
        (fun name -> check_true ("no " ^ name) (not (List.mem name (names "histograms"))))
        [ "pool.worker_minor_words"; "pool.chunk_minor_words" ])

let suite =
  [
    Alcotest.test_case "prometheus page is well-formed" `Quick test_prometheus_well_formed;
    Alcotest.test_case "json and text surfaces agree" `Quick test_json_text_agreement;
    Alcotest.test_case "request line: pinned cases" `Quick test_request_path_pinned;
    qcheck ~count:1000 "request line: hostile bytes" prop_request_path arbitrary_request;
    Alcotest.test_case "http round trip on an ephemeral port" `Quick test_http_roundtrip;
    Alcotest.test_case "scraping races a hot pool safely" `Slow
      test_concurrent_scrape_during_pool_run;
    Alcotest.test_case "pool runs publish no util gauges" `Quick test_pool_publishes_counters;
  ]
