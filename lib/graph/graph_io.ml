let to_string g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "%d %d\n" (Graph.n g) (Graph.m g));
  Graph.iter_edges g (fun u v -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v));
  Buffer.contents buf

let meaningful_lines s =
  String.split_on_char '\n' s
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')

let parse_ints ~expected lineno line =
  let parts = String.split_on_char ' ' line |> List.filter (fun s -> s <> "") in
  if List.length parts <> expected then
    failwith (Printf.sprintf "line %d: expected %d integers, got %S" lineno expected line);
  List.map
    (fun p ->
      match int_of_string_opt p with
      | Some v -> v
      | None -> failwith (Printf.sprintf "line %d: not an integer: %S" lineno p))
    parts

let max_count = 1 lsl 24

(* Header counts are checked before anything is sized by them, so a
   hostile header fails here instead of in [Array.make]. *)
let check_count lineno what v =
  if v < 0 then failwith (Printf.sprintf "line %d: negative %s %d" lineno what v);
  if v > max_count then
    failwith (Printf.sprintf "line %d: %s %d exceeds the limit %d" lineno what v max_count)

let check_endpoint lineno line x bound =
  if x < 0 || x >= bound then
    failwith (Printf.sprintf "line %d: endpoint out of range [0, %d): %S" lineno bound line)

(* The edge lines as a flat endpoint array, each pair checked by [check];
   sized only once the line count matches the header's [m]. *)
let parse_edges who m rest check =
  let k = List.length rest in
  if k <> m then failwith (Printf.sprintf "Graph_io.%s: header says %d edges, found %d" who m k);
  let ends = Array.make (2 * k) 0 in
  List.iteri
    (fun i (lineno, line) ->
      match parse_ints ~expected:2 lineno line with
      | [ u; v ] ->
          check lineno line u v;
          ends.(2 * i) <- u;
          ends.((2 * i) + 1) <- v
      | _ -> assert false)
    rest;
  ends

let of_string s =
  match meaningful_lines s with
  | [] -> failwith "Graph_io.of_string: empty input"
  | (ln, header) :: rest -> begin
      match parse_ints ~expected:2 ln header with
      | [ n; m ] ->
          check_count ln "vertex count" n;
          check_count ln "edge count" m;
          Graph.of_edge_array n
            (parse_edges "of_string" m rest (fun lineno line u v ->
                 check_endpoint lineno line u n;
                 check_endpoint lineno line v n;
                 if u = v then failwith (Printf.sprintf "line %d: self-loop %S" lineno line)))
      | _ -> assert false
    end

let save g path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string g))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let bipartite_to_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%d %d %d\n" (Bipartite.s_count t) (Bipartite.n_count t) (Bipartite.m t));
  Bipartite.iter_edges t (fun u w -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u w));
  Buffer.contents buf

let bipartite_of_string s =
  match meaningful_lines s with
  | [] -> failwith "Graph_io.bipartite_of_string: empty input"
  | (ln, header) :: rest -> begin
      match parse_ints ~expected:3 ln header with
      | [ s_cnt; n_cnt; m ] ->
          check_count ln "S count" s_cnt;
          check_count ln "N count" n_cnt;
          check_count ln "edge count" m;
          Bipartite.of_edge_array ~s:s_cnt ~n:n_cnt
            (parse_edges "bipartite_of_string" m rest (fun lineno line u w ->
                 check_endpoint lineno line u s_cnt;
                 check_endpoint lineno line w n_cnt))
      | _ -> assert false
    end

let to_dot ?highlight g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "graph G {\n  node [shape=circle];\n";
  (match highlight with
  | Some h ->
      Wx_util.Bitset.iter
        (fun v ->
          Buffer.add_string buf
            (Printf.sprintf "  %d [style=filled, fillcolor=lightblue];\n" v))
        h
  | None -> ());
  Graph.iter_edges g (fun u v -> Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" u v));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
