(* Versioned bench reports ("wx-bench/4") and the one regression rule that
   both `wx bench diff` and `wx bench history gate` apply.

   A report records, per experiment, the full wall-time sample list (one
   per repeat) and run provenance, so a number can be traced back to a
   commit, a host and a job count, and a diff can tell regression from
   scheduler noise: a wall-time regression needs the medians to move
   beyond a relative tolerance AND the two sample ranges to be disjoint.
   The "alloc" block (Memgc.counters measured around the run) adds a
   deterministic axis: minor-word counts are exact for a fixed seed/jobs,
   so that verdict is a plain 1% ratio with no floor and no range logic —
   tight where the wall-time verdict must be loose. The "work" block (units
   per Wx_obs.Work kind) and the "util" block (pool runs, busy fraction,
   idle tail) are a record of what each experiment counted; no verdict
   reads them.

   [judge] is that rule, once, over two sample lists; [diff] applies it per
   experiment and the ledger's trend gate per series. *)

let schema = "wx-bench/4"

(* Pool utilization summary, reduced from Wx_par.Pool.util by the bench
   runner (Report cannot depend on Wx_par — the dependency runs the other
   way). *)
type util = {
  ut_runs : int;  (* instrumented parallel pool runs in the experiment *)
  ut_busy_frac : float;  (* total busy / total capacity across runs *)
  ut_idle_tail_ms : float;  (* mean idle tail per parallel run *)
}

type entry = {
  id : string;
  title : string;
  claim : string;
  wall_s : float list;  (* one sample per repeat, in run order; non-empty *)
  alloc : Memgc.counters option;  (* None when Memgc was off *)
  work : (string * int) list;  (* units per Work kind; [] when Metrics was off *)
  util : util option;  (* None when Metrics was off *)
  holds : int;
  total : int;
  checks : Json.t;  (* opaque per-check rows, passed through verbatim *)
  metrics : Json.t;  (* opaque snapshot, Null when collection was off *)
}

type t = {
  generated : string;
  seed : int;
  quick : bool;
  jobs : int;
  repeats : int;
  provenance : (string * string) list;
  entries : entry list;
}

(* ---- stats ---- *)

let median = function
  | [] -> Float.nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let min_sample xs = List.fold_left Float.min infinity xs
let max_sample xs = List.fold_left Float.max neg_infinity xs

(* ---- provenance ---- *)

let read_first_line cmd =
  match Unix.open_process_in cmd with
  | ic ->
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      let status = Unix.close_process_in ic in
      (match status with Unix.WEXITED 0 when line <> "" -> Some line | _ -> None)
  | exception _ -> None

let git_commit () =
  match read_first_line "git rev-parse HEAD 2>/dev/null" with
  | None -> "unknown"
  | Some c -> (
      match read_first_line "git status --porcelain 2>/dev/null" with
      | Some _ -> c ^ "+dirty"
      | None -> c)

let capture_provenance () =
  [
    ("git_commit", git_commit ());
    ("hostname", (try Unix.gethostname () with _ -> "unknown"));
    ("os", Sys.os_type);
    ("ocaml", Sys.ocaml_version);
    ("word_size", string_of_int Sys.word_size);
  ]

let make ?(provenance = capture_provenance ()) ~seed ~quick ~jobs ~repeats entries =
  { generated = Clock.timestamp (); seed; quick; jobs; repeats; provenance; entries }

(* ---- JSON codec ---- *)

let util_json u =
  Json.Obj
    [
      ("runs", Json.Int u.ut_runs);
      ("busy_frac", Json.Float u.ut_busy_frac);
      ("idle_tail_ms", Json.Float u.ut_idle_tail_ms);
    ]

let entry_json e =
  Json.Obj
    ([
      ("id", Json.String e.id);
      ("title", Json.String e.title);
      ("claim", Json.String e.claim);
      ("wall_s", Json.List (List.map (fun x -> Json.Float x) e.wall_s));
      (* Derived, for humans reading the file; [of_json] recomputes. *)
      ("wall_median_s", Json.Float (median e.wall_s));
      ("wall_min_s", Json.Float (min_sample e.wall_s));
      ("wall_max_s", Json.Float (max_sample e.wall_s));
      ("holds", Json.Int e.holds);
      ("total", Json.Int e.total);
      ("checks", e.checks);
      ("metrics", e.metrics);
    ]
    @ (match e.work with
      | [] -> []
      | w -> [ ("work", Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) w)) ])
    @ (match e.util with None -> [] | Some u -> [ ("util", util_json u) ])
    @ match e.alloc with None -> [] | Some a -> [ ("alloc", Memgc.to_json a) ])

let to_json t =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("generated", Json.String t.generated);
      ("seed", Json.Int t.seed);
      ("quick", Json.Bool t.quick);
      ("jobs", Json.Int t.jobs);
      ("repeats", Json.Int t.repeats);
      ("provenance", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) t.provenance));
      ("experiments", Json.List (List.map entry_json t.entries));
    ]

(* Decoding is defensive end to end: a bench gate must distinguish "slower"
   from "not a report at all", so every missing or mistyped field becomes
   an [Error] naming the field rather than an exception. *)

let field name j = match Json.member name j with Some v -> Ok v | None -> Error ("missing " ^ name)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let as_string name j =
  match Json.to_string_opt j with Some s -> Ok s | None -> Error (name ^ " is not a string")

let as_int name j =
  match Json.to_int_opt j with Some i -> Ok i | None -> Error (name ^ " is not an int")

let as_bool name j =
  match Json.to_bool_opt j with Some b -> Ok b | None -> Error (name ^ " is not a bool")

let str_field name j =
  let* v = field name j in
  as_string name v

let int_field name j =
  let* v = field name j in
  as_int name v

let entry_of_json j =
  let* id = str_field "id" j in
  let* title = str_field "title" j in
  let* claim = str_field "claim" j in
  let* wall_s =
    let* w = field "wall_s" j in
    match Json.to_list_opt w with
    | Some (_ :: _ as xs) ->
        let rec conv acc = function
          | [] -> Ok (List.rev acc)
          | x :: rest -> (
              match Json.to_float_opt x with
              | Some f -> conv (f :: acc) rest
              | None -> Error "wall_s sample is not a number")
        in
        conv [] xs
    | Some [] -> Error "wall_s is empty"
    | None -> Error "wall_s is not a list"
  in
  let* holds = int_field "holds" j in
  let* total = int_field "total" j in
  let checks = Option.value ~default:(Json.List []) (Json.member "checks" j) in
  let metrics = Option.value ~default:Json.Null (Json.member "metrics" j) in
  (* Absent when Memgc was off; a present-but-mangled block is an error,
     not a silent None. *)
  let* alloc =
    match Json.member "alloc" j with
    | None -> Ok None
    | Some a -> (
        match Memgc.of_json a with
        | Some c -> Ok (Some c)
        | None -> Error "alloc block is malformed")
  in
  (* Absent when Metrics was off: work decodes as [], util as None. Older
     reports also carry a derived rate_per_s object; it is ignored. *)
  let* work =
    match Json.member "work" j with
    | None -> Ok []
    | Some (Json.Obj kvs) ->
        let rec conv acc = function
          | [] -> Ok (List.rev acc)
          | (k, v) :: rest -> (
              match Json.to_int_opt v with
              | Some n -> conv ((k, n) :: acc) rest
              | None -> Error (Printf.sprintf "work.%s is not an int" k))
        in
        conv [] kvs
    | Some _ -> Error "work is not an object"
  in
  let* util =
    match Json.member "util" j with
    | None -> Ok None
    | Some u ->
        (* Reports recorded before the block shrank also carry seq_runs,
           max_idle_tail_ms and slots; they are ignored. *)
        let* runs = int_field "runs" u in
        let num name =
          let* v = field name u in
          match Json.to_float_opt v with
          | Some x -> Ok x
          | None -> Error (name ^ " is not a number")
        in
        let* busy_frac = num "busy_frac" in
        let* idle_tail_ms = num "idle_tail_ms" in
        Ok (Some { ut_runs = runs; ut_busy_frac = busy_frac; ut_idle_tail_ms = idle_tail_ms })
  in
  Ok { id; title; claim; wall_s; alloc; work; util; holds; total; checks; metrics }

let of_json j =
  let* s = str_field "schema" j in
  let* () =
    if s = schema then Ok () else Error (Printf.sprintf "unsupported schema %S (want %s)" s schema)
  in
  let* generated = str_field "generated" j in
  let* seed = int_field "seed" j in
  let* quick =
    let* q = field "quick" j in
    as_bool "quick" q
  in
  let* jobs = int_field "jobs" j in
  let* repeats = int_field "repeats" j in
  let provenance =
    match Json.member "provenance" j with
    | Some (Json.Obj kvs) ->
        List.filter_map (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_string_opt v)) kvs
    | _ -> []
  in
  let* entries =
    let* exps = field "experiments" j in
    match Json.to_list_opt exps with
    | None -> Error "experiments is not a list"
    | Some xs ->
        let rec conv acc = function
          | [] -> Ok (List.rev acc)
          | x :: rest -> (
              match entry_of_json x with
              | Ok e -> conv (e :: acc) rest
              | Error m -> Error ("experiment entry: " ^ m))
        in
        conv [] xs
  in
  Ok { generated; seed; quick; jobs; repeats; provenance; entries }

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m -> Error m
  | raw -> (
      match Json.of_string raw with
      | exception Json.Parse_error m -> Error (Printf.sprintf "%s: %s" path m)
      | j -> ( match of_json j with Ok t -> Ok t | Error m -> Error (Printf.sprintf "%s: %s" path m)))

let save path t =
  let oc = open_out path in
  output_string oc (Json.to_string_pretty (to_json t));
  output_char oc '\n';
  close_out oc

(* ---- verdicts ---- *)

type verdict = Regression | Improvement | Within_noise | Added | Removed

let verdict_name = function
  | Regression -> "REGRESSION"
  | Improvement -> "improvement"
  | Within_noise -> "within noise"
  | Added -> "added"
  | Removed -> "removed"

type metric = Wall | Alloc

let metric_name = function Wall -> "wall" | Alloc -> "alloc"

type rule = { tolerance : float; ranged : bool; floored : bool }

(* The one rule table, shared by `bench diff` and `bench history gate`.
   Wall time is noisy, so a regression needs both a median ratio beyond
   25% and disjoint sample ranges. Minor-word counts are deterministic per
   seed/jobs (DESIGN.md §8), so 1% is not a noise allowance — it only
   forgives genuinely tiny drifts — and needs no range test and no floor. *)
let rule = function
  | Wall -> { tolerance = 0.25; ranged = true; floored = true }
  | Alloc -> { tolerance = 0.01; ranged = false; floored = false }

(* Under 50ms timer resolution dominates the wall axis. *)
let min_wall_s = 0.05

type judgment = {
  verdict : verdict;
  old_median : float;
  new_median : float;
  ratio : float;  (* new/old medians; 0/0 reads as 1, x/0 as infinity *)
  note : string;
}

let judge metric ~old_ ~new_ =
  let r = rule metric in
  let om = median old_ and nm = median new_ in
  let ratio = if om = 0.0 then if nm = 0.0 then 1.0 else Float.infinity else nm /. om in
  let omin = min_sample old_ and omax = max_sample old_ in
  let nmin = min_sample new_ and nmax = max_sample new_ in
  let under_floor = r.floored && List.for_all (fun w -> w < min_wall_s) (old_ @ new_) in
  let up = ratio > 1.0 +. r.tolerance && ((not r.ranged) || nmin > omax) in
  let down = ratio < 1.0 -. r.tolerance && ((not r.ranged) || nmax < omin) in
  let verdict =
    if under_floor then Within_noise
    else if up then Regression
    else if down then Improvement
    else Within_noise
  in
  let note =
    if under_floor then Printf.sprintf "all walls under %.0fms floor" (1e3 *. min_wall_s)
    else if verdict = Within_noise then ""
    else if om = 0.0 then "old side recorded zero"
    else if r.ranged then
      Printf.sprintf "%+.0f%%, ranges disjoint (%.3g..%.3g vs %.3g..%.3g)"
        (100.0 *. (ratio -. 1.0))
        omin omax nmin nmax
    else Printf.sprintf "%+.2f%%" (100.0 *. (ratio -. 1.0))
  in
  { verdict; old_median = om; new_median = nm; ratio; note }

(* ---- diff ---- *)

type delta = {
  d_id : string;
  d_old : entry option;
  d_new : entry option;
  wall : judgment;
  alloc : judgment option;
}

let minor_words = function
  | Some ({ alloc = Some a; _ } : entry) -> float_of_int a.Memgc.minor_words
  | _ -> Float.nan

let compare_one (oe : entry) (ne : entry) =
  let wall = judge Wall ~old_:oe.wall_s ~new_:ne.wall_s in
  let checks_note =
    if (ne.holds, ne.total) <> (oe.holds, oe.total) then
      Printf.sprintf " checks %d/%d -> %d/%d" oe.holds oe.total ne.holds ne.total
    else ""
  in
  let alloc =
    match (oe.alloc, ne.alloc) with
    | Some oa, Some na ->
        let words (a : Memgc.counters) = [ float_of_int a.Memgc.minor_words ] in
        Some (judge Alloc ~old_:(words oa) ~new_:(words na))
    | _ -> None
  in
  {
    d_id = oe.id;
    d_old = Some oe;
    d_new = Some ne;
    wall = { wall with note = wall.note ^ checks_note };
    alloc;
  }

(* An experiment present on one side only: no comparison, just its median. *)
let one_sided verdict (e : entry) =
  let m = median e.wall_s in
  let old_median, new_median = if verdict = Added then (Float.nan, m) else (m, Float.nan) in
  {
    d_id = e.id;
    d_old = (if verdict = Added then None else Some e);
    d_new = (if verdict = Added then Some e else None);
    wall = { verdict; old_median; new_median; ratio = Float.nan; note = "" };
    alloc = None;
  }

let diff ~old_ ~new_ =
  let find t id = List.find_opt (fun (e : entry) -> e.id = id) t.entries in
  List.map
    (fun oe -> match find new_ oe.id with Some ne -> compare_one oe ne | None -> one_sided Removed oe)
    old_.entries
  @ List.filter_map
      (fun ne -> if find old_ ne.id = None then Some (one_sided Added ne) else None)
      new_.entries

let judgment metric d = match metric with Wall -> Some d.wall | Alloc -> d.alloc

let regressions metric deltas =
  List.filter
    (fun d -> match judgment metric d with Some j -> j.verdict = Regression | None -> false)
    deltas

(* A compared pair with no alloc judgment: a side recorded with Memgc off.
   Added/removed entries never count. *)
let alloc_skipped deltas =
  List.exists (fun d -> d.d_old <> None && d.d_new <> None && d.alloc = None) deltas

(* Configuration mismatches don't fail a diff, but a wall-time comparison
   across them is not apples-to-apples, so surface them loudly. *)
let compat_warnings ~old_ ~new_ =
  let warn cond msg acc = if cond then msg :: acc else acc in
  []
  |> warn (old_.quick <> new_.quick)
       (Printf.sprintf "quick mode differs (old %b, new %b)" old_.quick new_.quick)
  |> warn (old_.jobs <> new_.jobs)
       (Printf.sprintf "job counts differ (old %d, new %d)" old_.jobs new_.jobs)
  |> warn (old_.seed <> new_.seed)
       (Printf.sprintf "seeds differ (old %d, new %d)" old_.seed new_.seed)
  |> List.rev
