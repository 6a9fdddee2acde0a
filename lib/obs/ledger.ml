(* Perf-trajectory ledger ("wx-ledger/1") and its trend gate.

   `wx bench diff` answers "did THIS change regress against ONE committed
   baseline" — a pairwise question. Nothing so far answers the
   longitudinal one: has e2 been getting 3% slower per PR for the last
   two months? Each PR's diff stays inside its noise tolerance while the
   sum walks out of it. The ledger is the instrument for that: an
   append-only NDJSON file (committed at bench/ledger.ndjson) where each
   line is a compact digest of one wx-bench report — commit, dirty flag,
   timestamp, run provenance, and per experiment the median wall and the
   deterministic minor-word count. Digests, not reports: a report is tens
   of KB of samples, checks and metrics snapshots; the ledger keeps only
   what a trend can be computed from, so committing one line per PR stays
   cheap forever.

   Dedup is by commit: re-appending a digest whose (non-"unknown") commit
   already appears replaces the old entry and moves it to the end — the
   newest measurement of a commit wins, and iterating locally on a dirty
   tree does not grow the file. "unknown" commits (outside a checkout)
   always append; there is nothing to key them on.

   The trend gate applies the diff's own rule (Report.judge) per series,
   with the newest entry's value as the new side and the earlier values of
   the last [window] entries as the old side's samples. For alloc that is
   exactly what catches slow drift: per-PR steps under 1% accumulate
   against the window median until the gate fires. *)

let schema = "wx-ledger/1"

type exp_digest = {
  x_id : string;
  x_wall_s : float;  (* median wall of the report entry *)
  x_minor_words : float;  (* nan when the report carried no alloc block *)
}

type entry = {
  l_commit : string;  (* hex, "+dirty" stripped; "unknown" outside a checkout *)
  l_dirty : bool;
  l_generated : string;
  l_seed : int;
  l_quick : bool;
  l_jobs : int;
  l_repeats : int;
  l_exps : exp_digest list;
}

(* ---- digest ---- *)

let split_dirty commit =
  let suffix = "+dirty" in
  let n = String.length commit and k = String.length suffix in
  if n >= k && String.sub commit (n - k) k = suffix then (String.sub commit 0 (n - k), true)
  else (commit, false)

let digest (r : Report.t) =
  let commit, dirty =
    match List.assoc_opt "git_commit" r.Report.provenance with
    | Some c -> split_dirty c
    | None -> ("unknown", false)
  in
  let exps =
    List.map
      (fun (e : Report.entry) ->
        {
          x_id = e.Report.id;
          x_wall_s = Report.median e.Report.wall_s;
          x_minor_words =
            (match e.Report.alloc with
            | Some a -> float_of_int a.Memgc.minor_words
            | None -> Float.nan);
        })
      r.Report.entries
  in
  {
    l_commit = commit;
    l_dirty = dirty;
    l_generated = r.Report.generated;
    l_seed = r.Report.seed;
    l_quick = r.Report.quick;
    l_jobs = r.Report.jobs;
    l_repeats = r.Report.repeats;
    l_exps = exps;
  }

(* ---- codec ---- *)

(* Every line carries the schema marker: ledger files are append-only and
   long-lived, so a future wx-ledger/2 must be detectable per line, not
   per file. *)
let exp_json x =
  Json.Obj
    ([ ("id", Json.String x.x_id); ("wall_s", Json.Float x.x_wall_s) ]
    @
    if Float.is_nan x.x_minor_words then [] else [ ("minor_words", Json.Float x.x_minor_words) ])

let entry_to_json e =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("commit", Json.String e.l_commit);
      ("dirty", Json.Bool e.l_dirty);
      ("generated", Json.String e.l_generated);
      ("seed", Json.Int e.l_seed);
      ("quick", Json.Bool e.l_quick);
      ("jobs", Json.Int e.l_jobs);
      ("repeats", Json.Int e.l_repeats);
      ("experiments", Json.List (List.map exp_json e.l_exps));
    ]

(* Decoding is defensive like Report's: a gate must distinguish "slower"
   from "not a ledger", so malformed input becomes [Error] naming the
   field, never an exception. Older lines also carry a rate_per_s object
   per experiment; it is ignored. *)

let field name j = match Json.member name j with Some v -> Ok v | None -> Error ("missing " ^ name)
let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let str_field name j =
  let* v = field name j in
  match Json.to_string_opt v with Some s -> Ok s | None -> Error (name ^ " is not a string")

let int_field name j =
  let* v = field name j in
  match Json.to_int_opt v with Some i -> Ok i | None -> Error (name ^ " is not an int")

let bool_field name j =
  let* v = field name j in
  match Json.to_bool_opt v with Some b -> Ok b | None -> Error (name ^ " is not a bool")

let float_field name j =
  let* v = field name j in
  match Json.to_float_opt v with Some x -> Ok x | None -> Error (name ^ " is not a number")

let exp_of_json j =
  let* id = str_field "id" j in
  let* wall_s = float_field "wall_s" j in
  let* minor_words =
    match Json.member "minor_words" j with
    | None -> Ok Float.nan
    | Some v -> (
        match Json.to_float_opt v with
        | Some x -> Ok x
        | None -> Error "minor_words is not a number")
  in
  Ok { x_id = id; x_wall_s = wall_s; x_minor_words = minor_words }

let entry_of_json j =
  let* s = str_field "schema" j in
  let* () =
    if s = schema then Ok () else Error (Printf.sprintf "unsupported schema %S (want %s)" s schema)
  in
  let* commit = str_field "commit" j in
  let* dirty = bool_field "dirty" j in
  let* generated = str_field "generated" j in
  let* seed = int_field "seed" j in
  let* quick = bool_field "quick" j in
  let* jobs = int_field "jobs" j in
  let* repeats = int_field "repeats" j in
  let* exps =
    let* l = field "experiments" j in
    match Json.to_list_opt l with
    | None -> Error "experiments is not a list"
    | Some xs ->
        let rec conv acc = function
          | [] -> Ok (List.rev acc)
          | x :: rest -> (
              match exp_of_json x with
              | Ok e -> conv (e :: acc) rest
              | Error m -> Error ("experiment digest: " ^ m))
        in
        conv [] xs
  in
  Ok
    {
      l_commit = commit;
      l_dirty = dirty;
      l_generated = generated;
      l_seed = seed;
      l_quick = quick;
      l_jobs = jobs;
      l_repeats = repeats;
      l_exps = exps;
    }

(* ---- file IO ---- *)

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m -> Error m
  | raw ->
      let lines = String.split_on_char '\n' raw in
      let rec go lineno acc = function
        | [] -> Ok (List.rev acc)
        | line :: rest ->
            if String.trim line = "" then go (lineno + 1) acc rest
            else (
              match Json.of_string line with
              | exception Json.Parse_error m ->
                  Error (Printf.sprintf "%s:%d: %s" path lineno m)
              | j -> (
                  match entry_of_json j with
                  | Ok e -> go (lineno + 1) (e :: acc) rest
                  | Error m -> Error (Printf.sprintf "%s:%d: %s" path lineno m)))
      in
      go 1 [] lines

let save path entries =
  let oc = open_out path in
  List.iter
    (fun e ->
      output_string oc (Json.to_string (entry_to_json e));
      output_char oc '\n')
    entries;
  close_out oc

let append entries e =
  let kept =
    if e.l_commit = "unknown" then entries
    else List.filter (fun x -> x.l_commit <> e.l_commit) entries
  in
  kept @ [ e ]

(* ---- series extraction ---- *)

let find_exp id e = List.find_opt (fun x -> x.x_id = id) e.l_exps

(* Aligned with [entries]: NaN marks entries where the experiment (or the
   requested datum) is absent, so sparklines keep the commit axis. *)
let series metric ~id entries =
  List.map
    (fun e ->
      match find_exp id e with
      | None -> Float.nan
      | Some x -> ( match metric with Report.Wall -> x.x_wall_s | Report.Alloc -> x.x_minor_words))
    entries

let exp_ids entries =
  List.sort_uniq compare (List.concat_map (fun e -> List.map (fun x -> x.x_id) e.l_exps) entries)

(* ---- sparklines ---- *)

(* Eight-level block characters scaled to the series' own min..max; NaN
   (missing) points render as '·'. A flat series renders mid-level so it
   reads as "present and steady" rather than empty. *)
let spark_levels = [| "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |]

let sparkline xs =
  let known = List.filter (fun v -> not (Float.is_nan v)) xs in
  match known with
  | [] -> String.concat "" (List.map (fun _ -> "·") xs)
  | _ ->
      let lo = List.fold_left Float.min infinity known in
      let hi = List.fold_left Float.max neg_infinity known in
      String.concat ""
        (List.map
           (fun v ->
             if Float.is_nan v then "·"
             else if hi <= lo then spark_levels.(3)
             else
               let t = (v -. lo) /. (hi -. lo) in
               spark_levels.(max 0 (min 7 (int_of_float (t *. 7.999)))))
           xs)

(* ---- trend gate ---- *)

type trend = {
  t_exp : string;
  t_metric : Report.metric;
  t_judgment : Report.judgment option;  (* None: nothing to judge, see [note] *)
  t_series : float list;  (* window-aligned, oldest..newest, NaN = missing *)
}

let window = 8

let last_n n xs =
  let len = List.length xs in
  if len <= n then xs else List.filteri (fun i _ -> i >= len - n) xs

let known = List.filter (fun v -> not (Float.is_nan v))

(* The window's earlier values and the newest one, which is NaN when the
   newest entry lacks the series. *)
let split_newest xs =
  match List.rev xs with [] -> ([], Float.nan) | v :: rev_prev -> (List.rev rev_prev, v)

let gate entries =
  let entries = last_n window entries in
  match List.rev entries with
  | [] -> []
  | newest :: _ ->
      let trend metric id =
        let ser = series metric ~id entries in
        let prev, latest = split_newest ser in
        let judgment =
          match known prev with
          | [] -> None
          | _ when Float.is_nan latest -> None (* never judge an older value in its place *)
          | old_ -> Some (Report.judge metric ~old_ ~new_:[ latest ])
        in
        { t_exp = id; t_metric = metric; t_judgment = judgment; t_series = ser }
      in
      (* Only experiments alive in the newest entry are gated: a removed
         experiment has no trajectory left to protect. *)
      List.concat_map
        (fun x -> [ trend Report.Wall x.x_id; trend Report.Alloc x.x_id ])
        newest.l_exps

let note t =
  match t.t_judgment with
  | Some j -> j.Report.note
  | None ->
      if Float.is_nan (snd (split_newest t.t_series)) then "absent from the newest entry"
      else "insufficient history"

let regressions trends =
  List.filter
    (fun t ->
      match t.t_judgment with Some j -> j.Report.verdict = Report.Regression | None -> false)
    trends
