(* Table, Floatx, Combi, Pq. *)
module Table = Wx_util.Table
module Floatx = Wx_util.Floatx
module Combi = Wx_util.Combi
module Pq = Wx_util.Pq
open Common

(* --- Table --- *)

let test_table_render () =
  let t = Table.create [ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "beta-long-name"; "22" ];
  let s = Table.render t in
  check_true "contains header" (String.length s > 0);
  let lines = String.split_on_char '\n' (String.trim s) in
  let widths = List.map String.length lines in
  check_true "all lines same width" (List.for_all (fun w -> w = List.hd widths) widths)

(* Display width by decoding UTF-8 with the stdlib, independent of the
   width count Table uses. *)
let display_width s =
  let rec go i n =
    if i >= String.length s then n
    else go (i + Uchar.utf_decode_length (String.get_utf_8_uchar s i)) (n + 1)
  in
  go 0 0

let test_table_utf8 () =
  let t = Table.create [ "experiment"; "window" ] in
  Table.add_row t [ "e1"; "\u{2581}\u{2584}\u{2588}\u{00b7}\u{2585}" ];
  Table.add_row t [ "simscale"; "ascii" ];
  Table.add_row t [ "e11"; "\u{00b7}\u{00b7}\u{2588}" ];
  let lines = String.split_on_char '\n' (String.trim (Table.render t)) in
  let widths = List.map display_width lines in
  check_true "every line has the same display width"
    (List.for_all (fun w -> w = List.hd widths) widths);
  (* ASCII-only tables render byte for byte as before. *)
  let a = Table.create [ "id"; "v" ] in
  Table.add_row a [ "alpha"; "1" ];
  Alcotest.(check string) "ascii layout unchanged"
    "+-------+---+\n| id    | v |\n+-------+---+\n| alpha | 1 |\n+-------+---+\n"
    (Table.render a)

let test_table_wrong_arity () =
  let t = Table.create [ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: wrong number of cells")
    (fun () -> Table.add_row t [ "only-one" ])

let test_table_formatters () =
  Alcotest.(check string) "fi" "42" (Table.fi 42);
  Alcotest.(check string) "ff" "3.142" (Table.ff ~dec:3 3.14159);
  Alcotest.(check string) "ff nan" "-" (Table.ff nan);
  Alcotest.(check string) "fb true" "yes" (Table.fb true);
  Alcotest.(check string) "fb false" "NO" (Table.fb false);
  Alcotest.(check string) "fr" "2.00" (Table.fr 4.0 2.0);
  Alcotest.(check string) "fr zero" "-" (Table.fr 4.0 0.0)

(* --- Floatx --- *)

let test_log2 () =
  check_float "log2 8" 3.0 (Floatx.log2 8.0);
  check_float "log2 1" 0.0 (Floatx.log2 1.0)

let test_log2i () =
  check_int "floor 1" 0 (Floatx.log2i_floor 1);
  check_int "floor 7" 2 (Floatx.log2i_floor 7);
  check_int "floor 8" 3 (Floatx.log2i_floor 8);
  check_int "ceil 8" 3 (Floatx.log2i_ceil 8);
  check_int "ceil 9" 4 (Floatx.log2i_ceil 9);
  check_int "ceil 1" 0 (Floatx.log2i_ceil 1)

let test_is_pow2 () =
  check_true "1" (Floatx.is_pow2 1);
  check_true "64" (Floatx.is_pow2 64);
  check_true "not 0" (not (Floatx.is_pow2 0));
  check_true "not 6" (not (Floatx.is_pow2 6));
  check_true "not -4" (not (Floatx.is_pow2 (-4)))

let test_safe_div () =
  check_float "normal" 2.0 (Floatx.safe_div 4.0 2.0);
  check_true "div 0 is nan" (Float.is_nan (Floatx.safe_div 1.0 0.0))

let test_clamp () =
  check_float "below" 0.0 (Floatx.clamp ~lo:0.0 ~hi:1.0 (-5.0));
  check_float "above" 1.0 (Floatx.clamp ~lo:0.0 ~hi:1.0 5.0);
  check_float "inside" 0.5 (Floatx.clamp ~lo:0.0 ~hi:1.0 0.5)

(* --- Combi --- *)

let test_binomial () =
  check_int "C(5,2)" 10 (Combi.binomial 5 2);
  check_int "C(10,0)" 1 (Combi.binomial 10 0);
  check_int "C(10,10)" 1 (Combi.binomial 10 10);
  check_int "C(4,7)" 0 (Combi.binomial 4 7);
  check_int "C(52,5)" 2598960 (Combi.binomial 52 5)

let test_iter_subsets_of_size () =
  let count = ref 0 in
  let seen = Hashtbl.create 16 in
  Combi.iter_subsets_of_size 6 3 (fun a ->
      incr count;
      check_int "size" 3 (Array.length a);
      let key = Array.to_list a in
      check_true "sorted" (key = List.sort compare key);
      check_true "distinct" (not (Hashtbl.mem seen key));
      Hashtbl.add seen key ());
  check_int "C(6,3)" 20 !count

let test_iter_subsets_le () =
  let count = ref 0 in
  Combi.iter_subsets_le 5 3 (fun _ -> incr count);
  check_int "5+10+10" 25 !count

let test_iter_all_subsets () =
  let count = ref 0 in
  Combi.iter_all_subsets 5 (fun _ -> incr count);
  check_int "2^5" 32 !count

let test_subsets_count_le () =
  check_int "counts" 25 (Combi.subsets_count_le 5 3);
  check_int "full" 31 (Combi.subsets_count_le 5 5)

(* --- Pq --- *)

let test_pq_max_order () =
  let q = Pq.create_max () in
  List.iter (fun (p, v) -> Pq.push q p v) [ (3, "c"); (1, "a"); (5, "e"); (2, "b") ];
  check_int "len" 4 (Pq.length q);
  let order = ref [] in
  let rec drain () =
    match Pq.pop q with
    | None -> ()
    | Some (_, v) ->
        order := v :: !order;
        drain ()
  in
  drain ();
  check_true "desc order" (List.rev !order = [ "e"; "c"; "b"; "a" ]);
  check_true "empty" (Pq.is_empty q)

let test_pq_min_order () =
  let q = Pq.create_min () in
  List.iter (fun p -> Pq.push q p p) [ 4; 1; 3; 2 ];
  let out = ref [] in
  let rec drain () =
    match Pq.pop q with
    | None -> ()
    | Some (p, _) ->
        out := p :: !out;
        drain ()
  in
  drain ();
  check_true "asc order" (List.rev !out = [ 1; 2; 3; 4 ])

let test_pq_peek () =
  let q = Pq.create_max () in
  check_true "peek empty" (Pq.peek q = None);
  Pq.push q 9 "x";
  check_true "peek" (Pq.peek q = Some (9, "x"));
  check_int "len unchanged" 1 (Pq.length q)

let qcheck_tests =
  [
    qcheck "pq heapsort"
      (fun l ->
        let q = Pq.create_min () in
        List.iter (fun x -> Pq.push q x x) l;
        let rec drain acc =
          match Pq.pop q with None -> List.rev acc | Some (p, _) -> drain (p :: acc)
        in
        drain [] = List.sort compare l)
      QCheck.(list_of_size (QCheck.Gen.int_range 0 200) small_signed_int);
    qcheck "binomial pascal"
      (fun (n, k) ->
        let n = (n mod 20) + 2 and k = abs k mod 20 in
        if k > n || k = 0 then true
        else Combi.binomial n k = Combi.binomial (n - 1) (k - 1) + Combi.binomial (n - 1) k)
      QCheck.(pair small_nat small_signed_int);
  ]

let suite =
  [
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table arity" `Quick test_table_wrong_arity;
    Alcotest.test_case "table pads multi-byte cells" `Quick test_table_utf8;
    Alcotest.test_case "table formatters" `Quick test_table_formatters;
    Alcotest.test_case "log2" `Quick test_log2;
    Alcotest.test_case "log2i" `Quick test_log2i;
    Alcotest.test_case "is_pow2" `Quick test_is_pow2;
    Alcotest.test_case "safe_div" `Quick test_safe_div;
    Alcotest.test_case "clamp" `Quick test_clamp;
    Alcotest.test_case "binomial" `Quick test_binomial;
    Alcotest.test_case "subsets of size" `Quick test_iter_subsets_of_size;
    Alcotest.test_case "subsets le" `Quick test_iter_subsets_le;
    Alcotest.test_case "all subsets" `Quick test_iter_all_subsets;
    Alcotest.test_case "subset counts" `Quick test_subsets_count_le;
    Alcotest.test_case "pq max" `Quick test_pq_max_order;
    Alcotest.test_case "pq min" `Quick test_pq_min_order;
    Alcotest.test_case "pq peek" `Quick test_pq_peek;
  ]
  @ qcheck_tests
