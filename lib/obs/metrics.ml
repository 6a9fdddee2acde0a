(* Process-wide metrics registry: counters, gauges, timers and log-scale
   histograms with quantile estimates.

   Zero-cost-when-disabled contract: instruments are registered once at
   module-init time (a handle is a record, not a name lookup), and every
   hot-path operation starts with a single load of [enabled]. No string
   formatting, no allocation, no clock read happens while disabled — safe
   to leave in the innermost loops of the solvers and the simulator.

   Domain-safety contract (the exact expansion measures shard their
   enumeration over Wx_par domains): counters and gauges are [Atomic.t], so
   concurrent increments never lose updates; histograms keep one shard per
   observing domain (domain-local storage, registered under a mutex on
   first touch) and merge the shards at snapshot/quantile time, so the hot
   [observe] path stays lock-free and contention-free. *)

let enabled =
  Atomic.make
    (match Sys.getenv_opt "WX_METRICS" with
    | Some ("1" | "true" | "on" | "yes") -> true
    | _ -> false)

let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

type counter = { c_name : string; count : int Atomic.t }
type gauge = { g_name : string; value : float Atomic.t; g_set : bool Atomic.t }

(* Histogram over positive values with power-of-two buckets: bucket [i]
   holds observations v with 2^i <= v < 2^(i+1) (v < 1 lands in bucket 0).
   63 buckets cover anything an int-nanosecond timer can produce. *)
let hist_buckets = 63

(* One shard per observing domain. Only its owner writes a shard, so the
   mutable fields need no synchronization; readers merge under the
   registration lock after the workers have been joined. *)
type shard = {
  buckets : int array;
  mutable s_count : int;
  mutable s_sum : float;
  mutable s_min : float;
  mutable s_max : float;
}

type histogram = {
  h_name : string;
  h_lock : Mutex.t;
  h_shards : shard list ref;
  h_key : shard Domain.DLS.key;
}

type timer = { t_name : string; hist : histogram }

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16
let timers : (string, timer) Hashtbl.t = Hashtbl.create 32

(* Registration happens at module init in practice, but guard it anyway so
   a worker-domain registration cannot corrupt the tables. *)
let registry_lock = Mutex.create ()

let intern tbl name make =
  Mutex.lock registry_lock;
  let x =
    match Hashtbl.find_opt tbl name with
    | Some x -> x
    | None ->
        let x = make () in
        Hashtbl.replace tbl name x;
        x
  in
  Mutex.unlock registry_lock;
  x

let counter name = intern counters name (fun () -> { c_name = name; count = Atomic.make 0 })

let gauge name =
  intern gauges name (fun () ->
      { g_name = name; value = Atomic.make 0.0; g_set = Atomic.make false })

let fresh_shard () =
  {
    buckets = Array.make hist_buckets 0;
    s_count = 0;
    s_sum = 0.0;
    s_min = infinity;
    s_max = neg_infinity;
  }

let make_histogram name =
  let lock = Mutex.create () in
  let shards = ref [] in
  let key =
    (* Lazily give each domain its own shard; creation also publishes the
       shard to the histogram's merge list. *)
    Domain.DLS.new_key (fun () ->
        let s = fresh_shard () in
        Mutex.lock lock;
        shards := s :: !shards;
        Mutex.unlock lock;
        s)
  in
  { h_name = name; h_lock = lock; h_shards = shards; h_key = key }

let histogram name = intern histograms name (fun () -> make_histogram name)

let timer name =
  intern timers name (fun () -> { t_name = name; hist = make_histogram (name ^ ".ns") })

(* ---- hot-path operations ---- *)

let incr c = if Atomic.get enabled then Atomic.incr c.count

let add c n = if Atomic.get enabled then ignore (Atomic.fetch_and_add c.count n)

let set g v =
  if Atomic.get enabled then begin
    Atomic.set g.value v;
    Atomic.set g.g_set true
  end

let bucket_of v =
  if v < 2.0 then 0
  else begin
    let i = int_of_float (Float.floor (Float.log2 v)) in
    if i >= hist_buckets then hist_buckets - 1 else i
  end

let observe_always h v =
  let s = Domain.DLS.get h.h_key in
  s.buckets.(bucket_of v) <- s.buckets.(bucket_of v) + 1;
  s.s_count <- s.s_count + 1;
  s.s_sum <- s.s_sum +. v;
  if v < s.s_min then s.s_min <- v;
  if v > s.s_max then s.s_max <- v

let observe h v = if Atomic.get enabled then observe_always h v

(* Force creation of the calling domain's shard without recording anything.
   Shard creation otherwise happens on first observe, which — under the
   pool's dynamic chunk stealing — can happen on a worker in one run and
   not the next; pre-touching from every worker keeps the per-run
   allocation count fixed, which the Memgc determinism gate relies on. *)
let touch_timer t =
  if Atomic.get enabled then ignore (Sys.opaque_identity (Domain.DLS.get t.hist.h_key))

(* Timers: [start] reads the clock only when enabled and returns the raw ns
   stamp (0 when disabled); [stop] is a no-op on a 0 stamp. *)
let start () = if Atomic.get enabled then Clock.now_ns () else 0

let stop t stamp =
  if stamp <> 0 && Atomic.get enabled then
    observe_always t.hist (float_of_int (Clock.now_ns () - stamp))

(* For callers that already hold a duration (the domain pool times chunks
   with raw clock reads shared with the trace exporter). *)
let observe_ns t ns = if Atomic.get enabled then observe_always t.hist (float_of_int (max 0 ns))

let time t f =
  if Atomic.get enabled then begin
    let stamp = Clock.now_ns () in
    Fun.protect ~finally:(fun () -> observe_always t.hist (float_of_int (Clock.now_ns () - stamp))) f
  end
  else f ()

(* Direct read of a counter's running total (enabled or not). Work-unit
   accounting reads totals mid-run — per-experiment deltas, progress ticks —
   where a full snapshot would be far too heavy. *)
let counter_value c = Atomic.get c.count

(* ---- reading ---- *)

(* Merged view of a histogram's per-domain shards.

   Historically this was only taken after parallel sections had joined, so
   the single-writer shard fields were stable. The exposition server
   (Expose) now merges while the pool is hot, from a domain that owns no
   shard, so the merge must tolerate concurrent writers. Every shard field
   is word-sized (no tearing under the OCaml memory model), but the fields
   of one in-flight observation land in order buckets -> count -> sum ->
   min/max, so a racing reader can see a bucket increment whose min/max has
   not been published yet. Two consequences, both handled below: the view's
   count is derived from the merged buckets (keeping quantile ranks
   consistent with the mass they walk), and when min/max have visibly not
   caught up with the buckets they are re-derived from the occupied bucket
   range rather than leaking an infinity into quantile clamping. A racing
   view may be a few observations stale; it is never internally
   inconsistent. *)
type hview = {
  v_buckets : int array;
  v_count : int;
  v_sum : float;
  v_min : float;
  v_max : float;
}

let merged h =
  Mutex.lock h.h_lock;
  let shards = !(h.h_shards) in
  Mutex.unlock h.h_lock;
  let buckets = Array.make hist_buckets 0 in
  let sum = ref 0.0 and mn = ref infinity and mx = ref neg_infinity in
  List.iter
    (fun s ->
      for i = 0 to hist_buckets - 1 do
        buckets.(i) <- buckets.(i) + s.buckets.(i)
      done;
      sum := !sum +. s.s_sum;
      if s.s_min < !mn then mn := s.s_min;
      if s.s_max > !mx then mx := s.s_max)
    shards;
  let count = Array.fold_left ( + ) 0 buckets in
  (* A hot-concurrent merge can catch buckets ahead of min/max (or a reset
     behind them): fall back to the occupied bucket range so the clamp in
     [quantile_of_view] never sees an infinity with nonzero mass. *)
  if count > 0 && not (!mn <= !mx && Float.is_finite !mn && Float.is_finite !mx) then begin
    let lo = ref 0 and hi = ref 0 in
    for i = hist_buckets - 1 downto 0 do
      if buckets.(i) > 0 then lo := i
    done;
    for i = 0 to hist_buckets - 1 do
      if buckets.(i) > 0 then hi := i
    done;
    mn := (if !lo = 0 then 0.0 else Float.pow 2.0 (float_of_int !lo));
    mx := Float.pow 2.0 (float_of_int (!hi + 1))
  end;
  { v_buckets = buckets; v_count = count; v_sum = !sum; v_min = !mn; v_max = !mx }

let quantile_of_view v q =
  if v.v_count = 0 then Float.nan
  else begin
    let rank = Float.max 1.0 (Float.ceil (q *. float_of_int v.v_count)) in
    let acc = ref 0 and idx = ref (hist_buckets - 1) in
    (try
       for i = 0 to hist_buckets - 1 do
         acc := !acc + v.v_buckets.(i);
         if float_of_int !acc >= rank then begin
           idx := i;
           raise Exit
         end
       done
     with Exit -> ());
    (* Geometric midpoint of the winning bucket, clamped to observed range. *)
    let est = Float.pow 2.0 (float_of_int !idx +. 0.5) in
    Float.min v.v_max (Float.max v.v_min est)
  end

let quantile h q = quantile_of_view (merged h) q

let reset () =
  Mutex.lock registry_lock;
  Hashtbl.iter (fun _ c -> Atomic.set c.count 0) counters;
  Hashtbl.iter
    (fun _ g ->
      Atomic.set g.value 0.0;
      Atomic.set g.g_set false)
    gauges;
  let reset_h h =
    Mutex.lock h.h_lock;
    List.iter
      (fun s ->
        Array.fill s.buckets 0 hist_buckets 0;
        s.s_count <- 0;
        s.s_sum <- 0.0;
        s.s_min <- infinity;
        s.s_max <- neg_infinity)
      !(h.h_shards);
    Mutex.unlock h.h_lock
  in
  Hashtbl.iter (fun _ h -> reset_h h) histograms;
  Hashtbl.iter (fun _ t -> reset_h t.hist) timers;
  Mutex.unlock registry_lock

let sorted_bindings tbl =
  List.sort (fun (a, _) (b, _) -> compare a b) (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let hist_json v =
  Json.Obj
    [
      ("count", Json.Int v.v_count);
      ("sum", Json.Float v.v_sum);
      ("min", Json.Float (if v.v_count = 0 then Float.nan else v.v_min));
      ("max", Json.Float (if v.v_count = 0 then Float.nan else v.v_max));
      ("p50", Json.Float (quantile_of_view v 0.50));
      ("p90", Json.Float (quantile_of_view v 0.90));
      ("p99", Json.Float (quantile_of_view v 0.99));
    ]

(* Snapshot of every instrument that has recorded anything. *)
let snapshot () =
  let cs =
    List.filter_map
      (fun (k, c) ->
        let n = Atomic.get c.count in
        if n = 0 then None else Some (k, Json.Int n))
      (sorted_bindings counters)
  in
  let gs =
    List.filter_map
      (fun (k, g) -> if Atomic.get g.g_set then Some (k, Json.Float (Atomic.get g.value)) else None)
      (sorted_bindings gauges)
  in
  let hs =
    List.filter_map
      (fun (k, h) ->
        let v = merged h in
        if v.v_count = 0 then None else Some (k, hist_json v))
      (sorted_bindings histograms)
  in
  let ts =
    List.filter_map
      (fun (k, t) ->
        let v = merged t.hist in
        if v.v_count = 0 then None
        else
          Some
            ( k,
              match hist_json v with
              | Json.Obj fields -> Json.Obj (fields @ [ ("total_ms", Json.Float (v.v_sum /. 1e6)) ])
              | j -> j ))
      (sorted_bindings timers)
  in
  Json.Obj
    [
      ("counters", Json.Obj cs);
      ("gauges", Json.Obj gs);
      ("histograms", Json.Obj hs);
      ("timers", Json.Obj ts);
    ]

(* NaN is what {!quantile} and min/max of an empty view legitimately return;
   human-facing renderings print "-" for it instead of leaking "nan". *)
let fg x = if Float.is_nan x then "-" else Printf.sprintf "%.3g" x

let render () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "-- metrics --\n";
  List.iter
    (fun (k, c) ->
      let n = Atomic.get c.count in
      if n <> 0 then Buffer.add_string buf (Printf.sprintf "  %-44s %d\n" k n))
    (sorted_bindings counters);
  List.iter
    (fun (k, g) ->
      if Atomic.get g.g_set then
        Buffer.add_string buf (Printf.sprintf "  %-44s %s\n" k (fg (Atomic.get g.value))))
    (sorted_bindings gauges);
  let render_h k v =
    if v.v_count <> 0 then
      Buffer.add_string buf
        (Printf.sprintf "  %-44s n=%d sum=%s p50=%s p90=%s p99=%s max=%s\n" k v.v_count
           (fg v.v_sum)
           (fg (quantile_of_view v 0.50))
           (fg (quantile_of_view v 0.90))
           (fg (quantile_of_view v 0.99))
           (fg v.v_max))
  in
  List.iter (fun (k, h) -> render_h k (merged h)) (sorted_bindings histograms);
  List.iter
    (fun (k, t) ->
      let v = merged t.hist in
      if v.v_count <> 0 then
        Buffer.add_string buf
          (Printf.sprintf "  %-44s n=%d total=%.2fms p50=%sns p99=%sns\n" k v.v_count
             (v.v_sum /. 1e6)
             (fg (quantile_of_view v 0.50))
             (fg (quantile_of_view v 0.99))))
    (sorted_bindings timers);
  Buffer.contents buf
