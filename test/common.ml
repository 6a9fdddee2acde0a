(* Shared helpers for the test suite. *)

module Bitset = Wx_util.Bitset
module Rng = Wx_util.Rng

let check_float ?(eps = 1e-9) msg expected actual =
  if not (Wx_util.Floatx.approx_equal ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let check_true msg b = Alcotest.(check bool) msg true b
let check_int msg expected actual = Alcotest.(check int) msg expected actual

let bitset_testable =
  Alcotest.testable
    (fun fmt s -> Format.pp_print_string fmt (Bitset.to_string s))
    Bitset.equal

let sorted_list_of_bitset s = Bitset.elements s

(* [f] on every subset of [s] (the empty set and [s] included) in Gray-code
   order, reusing one buffer: the set passed to [f] is only valid during the
   call. Successive subsets differ in one element, so each step is a single
   bit flip. Refuses a walk whose step count would overflow the native int
   with [Guard.Too_large], like every guarded enumeration in the library. *)
let iter_subsets s f =
  let elts = Bitset.to_array s in
  let k = Array.length elts in
  Wx_util.Guard.check_gray_work "Common.iter_subsets" k max_int;
  let buf = Bitset.create (Bitset.universe_size s) in
  f buf;
  for i = 1 to (1 lsl k) - 1 do
    let changed = i lxor (i lsr 1) lxor ((i - 1) lxor ((i - 1) lsr 1)) in
    let rec bit b = if (changed lsr b) land 1 = 1 then b else bit (b + 1) in
    let v = elts.(bit 0) in
    if Bitset.mem buf v then Bitset.remove_inplace buf v else Bitset.add_inplace buf v;
    f buf
  done

(* A tiny deterministic pool of rngs for tests. *)
let rng ?(salt = 0) () = Rng.create (424242 + salt)

(* Random small graph generator for qcheck properties: pick n in [lo, hi]
   and each edge with probability p drawn from the seed. *)
let arbitrary_graph ~lo ~hi =
  QCheck.make
    ~print:(fun g -> Format.asprintf "%a" Wx_graph.Graph.pp_adjacency g)
    QCheck.Gen.(
      let* n = int_range lo hi in
      let* p = float_range 0.15 0.75 in
      let* seed = int_range 0 1_000_000 in
      let r = Rng.create seed in
      return (Wx_graph.Gen.gnp r n p))

let arbitrary_bipartite ~smax ~nmax =
  QCheck.make
    ~print:(fun t -> Format.asprintf "%a" Wx_graph.Bipartite.pp t)
    QCheck.Gen.(
      let* s = int_range 2 smax in
      let* n = int_range 2 nmax in
      let* d = int_range 1 (min 4 n) in
      let* seed = int_range 0 1_000_000 in
      let r = Rng.create seed in
      return (Wx_graph.Gen.random_bipartite_sdeg r ~s ~n ~d))

(* A raw bipartite edge list [(s, n, edges)]: endpoints drawn independently,
   so small sides give repeated edges and sparse lists leave vertices of
   either side isolated. *)
let arbitrary_bipartite_edges ~smax ~nmax =
  QCheck.make
    ~print:(fun (s, n, es) ->
      Printf.sprintf "s=%d n=%d [%s]" s n
        (String.concat "; " (List.map (fun (u, w) -> Printf.sprintf "%d,%d" u w) es)))
    QCheck.Gen.(
      let* s = int_range 1 smax in
      let* n = int_range 1 nmax in
      let* m = int_range 0 (3 * (s + n)) in
      let* es = list_repeat m (pair (int_bound (s - 1)) (int_bound (n - 1))) in
      return (s, n, es))

(* A flat endpoint array [| u0; w0; u1; w1; ... |] from an edge list. *)
let ends_of es =
  let a = Array.make (2 * List.length es) 0 in
  List.iteri
    (fun i (u, w) ->
      a.(2 * i) <- u;
      a.((2 * i) + 1) <- w)
    es;
  a

(* Row [u] of one side of a bipartite graph as a fresh array, read through
   that side's iterator ([Bipartite.iter_s] or [Bipartite.iter_n]). *)
let bip_row iter t u =
  let acc = ref [] in
  iter t u (fun w -> acc := w :: !acc);
  Array.of_list (List.rev !acc)

let qcheck ?(count = 100) name prop arb =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* Hostile-input generators for the decoders. Bytes are drawn half from
   JSON's own syntax (so mutations reach the decoders behind the parser,
   not only the parser) and half at random. *)
let json_syntax = List.of_seq (String.to_seq "{}[]\",:\\u0123456789abcdefABCDEF.-+ eElnrstu")
let hostile_char = QCheck.Gen.(oneof [ oneofl json_syntax; char ])

(* Concatenated JSON fragments and stray bytes, so escapes, literals and
   numbers are reached with malformed tails. *)
let arbitrary_hostile_string =
  let fragments =
    [ "\""; "\"\\u"; "\\u"; "\\"; "{"; "}"; "["; "]"; ":"; ","; "0"; "1e5"; "-"; "."; "true";
      "nul"; "_"; "Z"; "F"; " " ]
  in
  QCheck.make ~print:String.escaped
    QCheck.Gen.(
      map (String.concat "")
        (list_size (int_range 0 24)
           (oneof [ oneofl fragments; map (String.make 1) hostile_char ])))

(* Copies of [s] with one to four single-byte edits: overwrite, delete or
   insert. *)
let arbitrary_mutation s =
  let edit s =
    QCheck.Gen.(
      let n = String.length s in
      let* pos = int_bound (max 0 (n - 1)) in
      let* c = hostile_char in
      let* op = int_bound 2 in
      return
        (match op with
        | 0 when n > 0 -> String.mapi (fun i x -> if i = pos then c else x) s
        | 1 when n > 0 -> String.sub s 0 pos ^ String.sub s (pos + 1) (n - pos - 1)
        | _ -> String.sub s 0 pos ^ String.make 1 c ^ String.sub s pos (n - pos)))
  in
  QCheck.make ~print:String.escaped
    QCheck.Gen.(
      let* k = int_range 1 4 in
      let rec go k s = if k = 0 then return s else edit s >>= go (k - 1) in
      go k s)
