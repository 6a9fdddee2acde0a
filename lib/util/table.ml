type align = Left | Right

type row = Cells of string list | Rule

type t = { headers : string list; aligns : align array; mutable rows : row list }

let create ?aligns headers =
  let k = List.length headers in
  if k = 0 then invalid_arg "Table.create: no columns";
  let aligns =
    match aligns with
    | Some a ->
        if List.length a <> k then invalid_arg "Table.create: aligns length mismatch";
        Array.of_list a
    | None -> Array.init k (fun i -> if i = 0 then Left else Right)
  in
  { headers; aligns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: wrong number of cells";
  t.rows <- Cells cells :: t.rows

let add_rule t = t.rows <- Rule :: t.rows

(* Display width in UTF-8 code points (continuation bytes 0b10xxxxxx do
   not count), so cells holding multi-byte glyphs such as sparkline blocks
   pad like one column per character; for ASCII this is the byte length. *)
let width s =
  let n = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) s;
  !n

let render t =
  let rows = List.rev t.rows in
  let k = List.length t.headers in
  let widths = Array.of_list (List.map width t.headers) in
  List.iter
    (function
      | Rule -> ()
      | Cells cs ->
          List.iteri (fun i c -> widths.(i) <- max widths.(i) (width c)) cs)
    rows;
  let buf = Buffer.create 1024 in
  let rule () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let line cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i c ->
        let w = widths.(i) in
        let pad = w - width c in
        let l, r = match t.aligns.(i) with Left -> (0, pad) | Right -> (pad, 0) in
        Buffer.add_char buf ' ';
        Buffer.add_string buf (String.make l ' ');
        Buffer.add_string buf c;
        Buffer.add_string buf (String.make r ' ');
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  rule ();
  line t.headers;
  rule ();
  List.iter (function Rule -> rule () | Cells cs -> line cs) rows;
  if k > 0 then rule ();
  Buffer.contents buf

let print t =
  print_string (render t);
  flush stdout

let fi = string_of_int

let ff ?(dec = 3) x =
  if Float.is_nan x then "-" else Printf.sprintf "%.*f" dec x

let fb b = if b then "yes" else "NO"

let fr ?(dec = 2) a b = if b = 0.0 then "-" else ff ~dec (a /. b)
