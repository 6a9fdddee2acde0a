(* Named work units: the throughput axis of the observability stack.

   A work kind is a counter of abstract units done — sets scored, Gray-code
   steps, rounds simulated, sample draws. Each kind is backed by a Metrics
   counter named "work.<kind>", so units show up in --metrics / snapshots,
   reset with Metrics.reset, and inherit the registry's domain-safety
   (atomic adds; shard-local batching is the caller's job, same discipline
   as the expansion.* hot-loop counters). On top of that, Work keeps its own
   kind registry so the bench runner can enumerate per-experiment unit
   deltas into the wx-bench/4 rate block without knowing the kinds ahead of
   time.

   Hot-path cost: [add]/[incr] delegate to Metrics and are a single flag
   load while the registry is disabled — no clock reads ever. *)

type kind = { w_name : string; c : Metrics.counter }

let kinds : (string, kind) Hashtbl.t = Hashtbl.create 16
let kinds_lock = Mutex.create ()

let kind name =
  Mutex.lock kinds_lock;
  let k =
    match Hashtbl.find_opt kinds name with
    | Some k -> k
    | None ->
        let k = { w_name = name; c = Metrics.counter ("work." ^ name) } in
        Hashtbl.replace kinds name k;
        k
  in
  Mutex.unlock kinds_lock;
  k

let name k = k.w_name

(* The core vocabulary, registered eagerly so totals () enumerates them in a
   fixed order even before any instrumented code path has run. *)
let sets_scored = kind "sets_scored"
let gray_steps = kind "gray_steps"
let rounds_simulated = kind "rounds_simulated"
let draws = kind "draws"
let vertex_scans = kind "radio.vertex_scans"

let add k n = Metrics.add k.c n
let incr k = Metrics.incr k.c
let count k = Metrics.counter_value k.c

let totals () =
  Mutex.lock kinds_lock;
  let all = Hashtbl.fold (fun _ k acc -> k :: acc) kinds [] in
  Mutex.unlock kinds_lock;
  List.sort compare
    (List.filter_map
       (fun k ->
         let n = count k in
         if n = 0 then None else Some (k.w_name, n))
       all)

let grand_total () =
  Mutex.lock kinds_lock;
  let all = Hashtbl.fold (fun _ k acc -> k :: acc) kinds [] in
  Mutex.unlock kinds_lock;
  List.fold_left (fun acc k -> acc + count k) 0 all

(* Delta between two totals () readings — the per-experiment work
   attribution the bench runner records (mirrors the Memgc delta pattern:
   read before, read after, subtract; kinds absent before count from 0). *)
let delta ~before ~after =
  List.filter_map
    (fun (name, n1) ->
      let n0 = match List.assoc_opt name before with Some n -> n | None -> 0 in
      if n1 - n0 = 0 then None else Some (name, n1 - n0))
    after
