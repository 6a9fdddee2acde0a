(* Pull-based exposition server: the live Metrics/Work registry over
   localhost HTTP/1.0 as Prometheus text.

   Architecture: one dedicated server domain blocks in select() on the
   listening socket and a self-pipe; [stop] writes the pipe, so shutdown
   never depends on waking an accept() by closing its fd under it (the
   at_exit hook on wx's signal-exit path calls [stop] too, which is why it
   must be race-free and idempotent). Requests are handled one at a time on
   the server domain — scraping is a per-second affair.

   Perturbation-free contract: serving reads counters and gauges through
   atomic loads and merges histogram shards under the hardened
   Metrics.merged (see metrics.ml); it never observes, never touches
   another domain's DLS, and every allocation a scrape causes happens on
   the exposition domain — invisible to Memgc.read (own words + pool
   worker credits), so the bench alloc gate is bit-identical with the
   server on or off.

   Format notes: Prometheus text exposition 0.0.4. Registry names are
   sanitized ('.' and anything outside [A-Za-z0-9_] become '_') and
   prefixed "wx_" unless already so prefixed; histograms and timers render
   as summaries (quantile samples + _sum/_count) with _min/_max gauges on
   the side. Rates are the scraper's business: it derives them from the
   monotone wx_work_* counters. *)

type t = {
  sock : Unix.file_descr;
  t_port : int;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  started_ns : int;
  stopped : bool Atomic.t;
  mutable dom : unit Domain.t option;
}

let port t = t.t_port
let uptime_s t = Clock.ns_to_s (Clock.now_ns () - t.started_ns)

(* Registry instruments of the exposition surface itself. The scrape
   counter is the canonical "monotone between scrapes" probe: it moves even
   when the workload is idle, so `test/cli_test.sh` and the CI smoke can
   assert monotonicity without racing the experiment. The exposed
   [wx_expose_scrapes] sample is rendered from [scrape_total], not the
   registry counter: a workload that calls [Metrics.reset] mid-run (bench
   record does, once per recording) would zero the registry copy and make
   the probe non-monotone across the reset. *)
let scrapes_c = Metrics.counter "expose.scrapes"
let scrape_total : int Atomic.t = Atomic.make 0

(* Captured once per process, on first render: capture_provenance shells
   out to git, which must not run at library-init time. *)
let build_info = lazy (Report.capture_provenance ())

(* ("abc+dirty" -> ("abc", true)); commit/dirty are separate labels. *)
let commit_and_dirty () =
  let prov = Lazy.force build_info in
  let commit = match List.assoc_opt "git_commit" prov with Some c -> c | None -> "unknown" in
  match String.index_opt commit '+' with
  | Some i -> (String.sub commit 0 i, true)
  | None -> (commit, false)

(* ---- Prometheus text rendering ---- *)

let prom_name name =
  let s =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
      name
  in
  if String.length s >= 3 && String.sub s 0 3 = "wx_" then s else "wx_" ^ s

let prom_label_value v =
  let buf = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let prom_float v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.10g" v

let obj_fields = function Json.Obj fields -> fields | _ -> []
let num_of = function Json.Int n -> float_of_int n | Json.Float v -> v | _ -> Float.nan

let add_typed buf name kind =
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)

let add_sample buf name value = Buffer.add_string buf (name ^ " " ^ value ^ "\n")

(* One summary block per histogram/timer snapshot object: quantile samples
   from the p50/p90/p99 estimates, _sum/_count, and _min/_max side gauges.
   total_ms (timers only) is derivable from _sum and skipped. *)
let add_summary buf name fields =
  let get k = match List.assoc_opt k fields with Some v -> num_of v | None -> Float.nan in
  add_typed buf name "summary";
  List.iter
    (fun (q, key) ->
      add_sample buf (Printf.sprintf "%s{quantile=\"%s\"}" name q) (prom_float (get key)))
    [ ("0.5", "p50"); ("0.9", "p90"); ("0.99", "p99") ];
  add_sample buf (name ^ "_sum") (prom_float (get "sum"));
  add_sample buf (name ^ "_count") (prom_float (get "count"));
  add_typed buf (name ^ "_min") "gauge";
  add_sample buf (name ^ "_min") (prom_float (get "min"));
  add_typed buf (name ^ "_max") "gauge";
  add_sample buf (name ^ "_max") (prom_float (get "max"))

let prometheus_page ~uptime_s () =
  let snap = Metrics.snapshot () in
  let section name = Option.fold ~none:[] ~some:obj_fields (Json.member name snap) in
  let buf = Buffer.create 4096 in
  (* Build info: constant 1 with the provenance as labels — the idiomatic
     Prometheus shape for joining version metadata onto other series. *)
  let commit, dirty = commit_and_dirty () in
  let labels =
    (("commit", commit) :: ("dirty", string_of_bool dirty)
    :: List.filter (fun (k, _) -> k <> "git_commit") (Lazy.force build_info))
  in
  add_typed buf "wx_build_info" "gauge";
  add_sample buf
    (Printf.sprintf "wx_build_info{%s}"
       (String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_label_value v)) labels)))
    "1";
  add_typed buf "wx_uptime_seconds" "gauge";
  add_sample buf "wx_uptime_seconds" (prom_float uptime_s);
  add_typed buf "wx_expose_scrapes" "counter";
  add_sample buf "wx_expose_scrapes" (string_of_int (Atomic.get scrape_total));
  List.iter
    (fun (k, v) ->
      if k <> "expose.scrapes" then begin
        let name = prom_name k in
        add_typed buf name "counter";
        add_sample buf name (prom_float (num_of v))
      end)
    (section "counters");
  List.iter
    (fun (k, v) ->
      let name = prom_name k in
      add_typed buf name "gauge";
      add_sample buf name (prom_float (num_of v)))
    (section "gauges");
  List.iter (fun (k, v) -> add_summary buf (prom_name k) (obj_fields v)) (section "histograms");
  List.iter (fun (k, v) -> add_summary buf (prom_name k) (obj_fields v)) (section "timers");
  Buffer.contents buf

(* ---- HTTP plumbing ---- *)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    let w = Unix.write fd b !off (n - !off) in
    if w <= 0 then raise Exit;
    off := !off + w
  done

let respond conn ~status ~ctype body =
  write_all conn
    (Printf.sprintf "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
       status ctype (String.length body) body)

(* ---- the request line ----

   Only the first line matters: "METHOD target [version]", ended by CR or
   LF (a bare-LF client and a CRLF client are the same client). The query
   string is dropped, so a Prometheus [params:] scrape config still hits
   /metrics. A method token (upper-case letters) other than GET is a 405;
   anything else that is not "GET /..." is a 400. Pure and total. *)

let request_path req =
  let eol =
    match (String.index_opt req '\r', String.index_opt req '\n') with
    | Some i, Some j -> min i j
    | Some i, None | None, Some i -> i
    | None, None -> String.length req
  in
  let is_method m = m <> "" && String.for_all (fun c -> c >= 'A' && c <= 'Z') m in
  match String.split_on_char ' ' (String.sub req 0 eol) with
  | "GET" :: target :: _ when String.length target > 0 && target.[0] = '/' -> (
      match String.index_opt target '?' with
      | Some q -> Ok (String.sub target 0 q)
      | None -> Ok target)
  | m :: _ :: _ when m <> "GET" && is_method m -> Error `Method_not_allowed
  | _ -> Error `Bad_request

let handle t conn =
  Unix.setsockopt_float conn Unix.SO_RCVTIMEO 2.0;
  Unix.setsockopt_float conn Unix.SO_SNDTIMEO 2.0;
  let buf = Bytes.create 2048 in
  let n = try Unix.read conn buf 0 (Bytes.length buf) with Unix.Unix_error _ -> 0 in
  if n > 0 then
    match request_path (Bytes.sub_string buf 0 n) with
    | Ok "/metrics" ->
        Atomic.incr scrape_total;
        Metrics.incr scrapes_c;
        respond conn ~status:"200 OK" ~ctype:"text/plain; version=0.0.4; charset=utf-8"
          (prometheus_page ~uptime_s:(uptime_s t) ())
    | Ok _ -> respond conn ~status:"404 Not Found" ~ctype:"text/plain" "not found\n"
    | Error `Method_not_allowed ->
        respond conn ~status:"405 Method Not Allowed" ~ctype:"text/plain"
          "method not allowed\n"
    | Error `Bad_request ->
        respond conn ~status:"400 Bad Request" ~ctype:"text/plain" "bad request\n"

let rec serve t =
  match Unix.select [ t.sock; t.stop_r ] [] [] (-1.0) with
  | ready, _, _ ->
      if List.mem t.stop_r ready then () (* stop() wrote the pipe: drain out *)
      else begin
        (match Unix.accept t.sock with
        | conn, _ ->
            (* One bad client must never take the server down; close is
               best-effort too (the peer may already have reset). *)
            (try handle t conn with _ -> ());
            (try Unix.close conn with Unix.Unix_error _ -> ())
        | exception Unix.Unix_error _ -> ());
        serve t
      end
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> serve t
  | exception Unix.Unix_error _ -> ()

let resolve_host host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 -> addrs.(0)
    | _ | (exception Not_found) -> raise (Unix.Unix_error (Unix.EINVAL, "gethostbyname", host)))

let start ?(host = "127.0.0.1") ~port () =
  match
    let addr = resolve_host host in
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt sock Unix.SO_REUSEADDR true;
       Unix.bind sock (Unix.ADDR_INET (addr, port));
       Unix.listen sock 16
     with e ->
       (try Unix.close sock with Unix.Unix_error _ -> ());
       raise e);
    let actual =
      match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> port
    in
    let stop_r, stop_w = Unix.pipe () in
    let t =
      {
        sock;
        t_port = actual;
        stop_r;
        stop_w;
        started_ns = Clock.now_ns ();
        stopped = Atomic.make false;
        dom = None;
      }
    in
    t.dom <- Some (Domain.spawn (fun () -> serve t));
    t
  with
  | t -> Ok t
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s:%d: %s" host port (Unix.error_message e))

let stop t =
  (* exchange, not get+set: the normal shutdown path and the at_exit hook
     installed for the signal-exit path can both call this. *)
  if not (Atomic.exchange t.stopped true) then begin
    (try ignore (Unix.write t.stop_w (Bytes.make 1 'q') 0 1) with Unix.Unix_error _ -> ());
    (match t.dom with Some d -> ( try Domain.join d with _ -> ()) | None -> ());
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ t.sock; t.stop_r; t.stop_w ]
  end
