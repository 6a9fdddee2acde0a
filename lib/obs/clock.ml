(* Nanosecond-resolution monotonic wall clock.

   Backed by the clock_gettime(CLOCK_MONOTONIC) stub that ships with
   bechamel's monotonic_clock sub-library, so timers are immune to NTP slews
   and gettimeofday jumps. Values are nanoseconds since an arbitrary epoch;
   only differences are meaningful. *)

(* Test hook mirroring Memgc.gc_read_count: a plain atomic bumped on every
   monotonic read, so tests can assert "zero clock reads while disabled" on
   hot paths (the pool's chunk loop, the Work fast path). Always live —
   one fetch-and-add per read is far below clock_gettime's own cost. *)
let reads = Atomic.make 0
let read_count () = Atomic.get reads

let now_ns () : int =
  Atomic.incr reads;
  Int64.to_int (Monotonic_clock.now ())

let ns_to_ms ns = float_of_int ns /. 1e6
let ns_to_s ns = float_of_int ns /. 1e9

(* Wall time for timestamps in filenames / reports (not monotonic). *)
let epoch_s () = Unix.gettimeofday ()

let timestamp () =
  let tm = Unix.gmtime (epoch_s ()) in
  Printf.sprintf "%04d%02d%02dT%02d%02d%02dZ" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
