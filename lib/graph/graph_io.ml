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

let of_string s =
  match meaningful_lines s with
  | [] -> failwith "Graph_io.of_string: empty input"
  | (ln, header) :: rest -> begin
      match parse_ints ~expected:2 ln header with
      | [ n; m ] ->
          if n < 0 then failwith (Printf.sprintf "line %d: negative vertex count %d" ln n);
          let edges =
            List.map
              (fun (lineno, line) ->
                match parse_ints ~expected:2 lineno line with
                | [ u; v ] ->
                    if u < 0 || u >= n || v < 0 || v >= n then
                      failwith
                        (Printf.sprintf "line %d: endpoint out of range [0, %d): %S" lineno n line);
                    if u = v then failwith (Printf.sprintf "line %d: self-loop %S" lineno line);
                    (u, v)
                | _ -> assert false)
              rest
          in
          if List.length edges <> m then
            failwith
              (Printf.sprintf "Graph_io.of_string: header says %d edges, found %d" m
                 (List.length edges));
          Graph.of_edges n edges
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
          let edges =
            List.map
              (fun (lineno, line) ->
                match parse_ints ~expected:2 lineno line with
                | [ u; w ] -> (u, w)
                | _ -> assert false)
              rest
          in
          if List.length edges <> m then
            failwith
              (Printf.sprintf "Graph_io.bipartite_of_string: header says %d edges, found %d" m
                 (List.length edges));
          Bipartite.of_edges ~s:s_cnt ~n:n_cnt edges
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
