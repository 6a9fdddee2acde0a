(* Offline analysis of Chrome-trace files: span profiles and differential
   profiling.

   Trace_export writes timelines; this module reads them back as data.
   The ledger's trend gate can say "e2 regressed 30% on wall since last
   month" but not where — answering that needs the per-span view of two
   traces side by side. A catapult file carries everything required:
   every complete ("X") slice has a name, a track (tid), a start and a
   duration, and — when Memgc was on during recording — a minor_words
   arg tagged by Span/Pool. Slices on one track nest by time
   containment (a span's children, the chunks inside a worker
   envelope), so a single pass over each track with an interval stack
   recovers each slice's parent, and from that the per-span SELF costs
   (total minus children — the number that localizes a regression, since
   child cost ranks on its own row).

   Everything here is pure data -> data and deterministic for fixed
   input files: aggregation is by name in sorted order, and the diff
   orders by regression first. *)

type row = {
  r_name : string;
  r_tid : int;
  r_t0_us : float;
  r_dur_us : float;
  r_minor_words : float;  (* 0 when the slice was not alloc-tagged *)
}

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let row_of_event j =
  let str name =
    match Option.bind (Json.member name j) Json.to_string_opt with
    | Some s -> Ok s
    | None -> Error ("event missing " ^ name)
  in
  let num name =
    match Option.bind (Json.member name j) Json.to_float_opt with
    | Some x -> Ok x
    | None -> Error ("event missing numeric " ^ name)
  in
  let* name = str "name" in
  let* tid =
    match Option.bind (Json.member "tid" j) Json.to_int_opt with
    | Some t -> Ok t
    | None -> Error "event missing tid"
  in
  let* ts = num "ts" in
  let* dur = num "dur" in
  let minor =
    match Json.member "args" j with
    | Some args -> (
        match Option.bind (Json.member "minor_words" args) Json.to_float_opt with
        | Some w -> w
        | None -> 0.0)
    | None -> 0.0
  in
  Ok { r_name = name; r_tid = tid; r_t0_us = ts; r_dur_us = dur; r_minor_words = minor }

(* Only complete ("X") events carry durations; metadata ("M") and counter
   ("C") samples are structure, not cost. A malformed X event is an error
   — the diff gate needs "not a trace" as a distinct outcome. *)
let rows_of_json j =
  match Json.member "traceEvents" j with
  | None -> Error "no traceEvents field (not a Chrome trace?)"
  | Some evs -> (
      match Json.to_list_opt evs with
      | None -> Error "traceEvents is not a list"
      | Some xs ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | ev :: rest -> (
                match Option.bind (Json.member "ph" ev) Json.to_string_opt with
                | Some "X" -> (
                    match row_of_event ev with
                    | Ok r -> go (r :: acc) rest
                    | Error m -> Error m)
                | Some _ -> go acc rest
                | None -> Error ("event missing ph: " ^ Json.to_string ev))
          in
          go [] xs)

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m -> Error m
  | raw -> (
      match Json.of_string raw with
      | exception Json.Parse_error m -> Error (Printf.sprintf "%s: %s" path m)
      | j -> (
          match rows_of_json j with
          | Ok rows -> Ok rows
          | Error m -> Error (Printf.sprintf "%s: %s" path m)))

(* ---- containment nesting ---- *)

(* Microsecond timestamps came from integer nanoseconds through one
   division, so parent/child edges survive to within a nanosecond; the
   epsilon absorbs that rounding without ever bridging real gaps. *)
let eps_us = 0.002

let contained ~inner:(t0, t1) ~outer:(u0, u1) = t0 >= u0 -. eps_us && t1 <= u1 +. eps_us

type node = { row : row; mutable child_dur_us : float; mutable child_minor : float }

(* One pass per track: rows sorted by (start asc, duration desc) visit
   parents before their children, and an interval stack recovers the
   ancestry. Returns every slice with its child rollups. *)
let nest rows =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let l = try Hashtbl.find by_tid r.r_tid with Not_found -> [] in
      Hashtbl.replace by_tid r.r_tid (r :: l))
    rows;
  let tids = List.sort_uniq compare (List.map (fun r -> r.r_tid) rows) in
  List.concat_map
    (fun tid ->
      let track =
        List.sort
          (fun a b ->
            match compare a.r_t0_us b.r_t0_us with
            | 0 -> compare b.r_dur_us a.r_dur_us
            | c -> c)
          (Hashtbl.find by_tid tid)
      in
      let out = ref [] and stack = ref [] in
      List.iter
        (fun r ->
          let iv = (r.r_t0_us, r.r_t0_us +. r.r_dur_us) in
          let rec unwind () =
            match !stack with
            | top :: rest
              when not
                     (contained ~inner:iv
                        ~outer:(top.row.r_t0_us, top.row.r_t0_us +. top.row.r_dur_us)) ->
                stack := rest;
                unwind ()
            | _ -> ()
          in
          unwind ();
          let n = { row = r; child_dur_us = 0.0; child_minor = 0.0 } in
          (match !stack with
          | top :: _ ->
              top.child_dur_us <- top.child_dur_us +. r.r_dur_us;
              top.child_minor <- top.child_minor +. r.r_minor_words
          | [] -> ());
          stack := n :: !stack;
          out := n :: !out)
        track;
      List.rev !out)
    tids

(* ---- aggregate profile ---- *)

type agg = {
  a_name : string;
  a_calls : int;
  a_total_us : float;
  a_self_us : float;
  a_minor_words : float;
  a_self_minor_words : float;
}

let profile rows =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun n ->
      let self_us = Float.max 0.0 (n.row.r_dur_us -. n.child_dur_us) in
      let self_minor = Float.max 0.0 (n.row.r_minor_words -. n.child_minor) in
      let a =
        try Hashtbl.find tbl n.row.r_name
        with Not_found ->
          {
            a_name = n.row.r_name;
            a_calls = 0;
            a_total_us = 0.0;
            a_self_us = 0.0;
            a_minor_words = 0.0;
            a_self_minor_words = 0.0;
          }
      in
      Hashtbl.replace tbl n.row.r_name
        {
          a with
          a_calls = a.a_calls + 1;
          a_total_us = a.a_total_us +. n.row.r_dur_us;
          a_self_us = a.a_self_us +. self_us;
          a_minor_words = a.a_minor_words +. n.row.r_minor_words;
          a_self_minor_words = a.a_self_minor_words +. self_minor;
        })
    (nest rows);
  Hashtbl.fold (fun _ a acc -> a :: acc) tbl []
  |> List.sort (fun a b ->
         match compare b.a_self_us a.a_self_us with
         | 0 -> compare a.a_name b.a_name
         | c -> c)

(* ---- differential profile ---- *)

type pdelta = {
  p_name : string;
  p_calls_old : int;  (* 0 when new-only *)
  p_calls_new : int;  (* 0 when old-only *)
  p_old_self_us : float;
  p_new_self_us : float;
  p_delta_self_us : float;  (* new - old; absent side counts as 0 *)
  p_old_self_minor : float;
  p_new_self_minor : float;
  p_delta_self_minor : float;
}

(* Regression-sorted: the span that gained the most self time leads, the
   one that lost the most closes the list — `--top K` of a prof diff is
   then "the K spans to look at". Ties break by name for determinism. *)
let diff_profiles ~old_ ~new_ =
  let find ps name = List.find_opt (fun a -> a.a_name = name) ps in
  let names =
    List.sort_uniq compare (List.map (fun a -> a.a_name) old_ @ List.map (fun a -> a.a_name) new_)
  in
  List.map
    (fun name ->
      let o = find old_ name and n = find new_ name in
      let self = function Some a -> a.a_self_us | None -> 0.0 in
      let minor = function Some a -> a.a_self_minor_words | None -> 0.0 in
      let calls = function Some a -> a.a_calls | None -> 0 in
      {
        p_name = name;
        p_calls_old = calls o;
        p_calls_new = calls n;
        p_old_self_us = self o;
        p_new_self_us = self n;
        p_delta_self_us = self n -. self o;
        p_old_self_minor = minor o;
        p_new_self_minor = minor n;
        p_delta_self_minor = minor n -. minor o;
      })
    names
  |> List.sort (fun a b ->
         match compare b.p_delta_self_us a.p_delta_self_us with
         | 0 -> compare a.p_name b.p_name
         | c -> c)

(* A span-level regression worth flagging: self time grew beyond the
   relative tolerance AND by more than an absolute floor (tiny spans
   double all the time; 1ms of new self time is where looking starts
   to pay). *)
let default_self_tolerance = 0.25
let default_min_delta_us = 1000.0

let pdelta_regressed d =
  d.p_delta_self_us > default_min_delta_us
  && (d.p_old_self_us <= 0.0
     || d.p_new_self_us /. d.p_old_self_us > 1.0 +. default_self_tolerance)
