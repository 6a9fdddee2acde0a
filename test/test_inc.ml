(* Differential coverage for the incremental delta-scoring engine:
   [Nbhd.Inc] counters must track the naive set-algebra operators under any
   add/remove sequence, the sharded pre-order enumerator must visit each
   shard in lex order with retained prefixes that actually reconstruct
   each subset, and the exact measures built on
   top must return values and witnesses bit-identical to a from-scratch
   reference minimiser at any job count. *)

module Graph = Wx_graph.Graph
module Gen = Wx_graph.Gen
module Bitset = Wx_util.Bitset
module Combi = Wx_util.Combi
module Rng = Wx_util.Rng
module Nbhd = Wx_expansion.Nbhd
module Measure = Wx_expansion.Measure
module Families = Wx_constructions.Families
open Common

(* ---- Inc counters vs naive operators ---- *)

let walk_graphs () =
  [
    ("dense", Gen.gnp (rng ~salt:101 ()) 14 0.7);
    ("sparse", Gen.gnp (rng ~salt:102 ()) 16 0.1);
    ("disconnected", Graph.disjoint_union (Gen.cycle 7) (Gen.gnp (rng ~salt:103 ()) 9 0.3));
    ("isolated", Graph.disjoint_union (Gen.complete 5) (Gen.gnp (rng ~salt:104 ()) 6 0.0));
  ]

let check_inc_state name g inc s =
  check_int (name ^ " cardinal") (Bitset.cardinal s) (Nbhd.Inc.cardinal inc);
  check_int (name ^ " boundary")
    (Bitset.cardinal (Nbhd.gamma_minus g s))
    (Nbhd.Inc.boundary inc);
  check_int (name ^ " unique") (Bitset.cardinal (Nbhd.gamma1 g s)) (Nbhd.Inc.unique inc)

let test_inc_matches_naive_random_walk () =
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let r = rng ~salt:17 () in
      let inc = Nbhd.Inc.create g in
      let s = Bitset.create n in
      for step = 1 to 300 do
        let v = Rng.int r n in
        if Bitset.mem s v then begin
          Bitset.remove_inplace s v;
          Nbhd.Inc.remove inc v
        end
        else begin
          Bitset.add_inplace s v;
          Nbhd.Inc.add inc v
        end;
        check_inc_state (Printf.sprintf "%s step %d" name step) g inc s;
        let probe = Rng.int r n in
        check_int
          (Printf.sprintf "%s step %d deg_in" name step)
          (Nbhd.deg_in g probe s)
          (Nbhd.Inc.deg_in inc probe);
        check_true
          (Printf.sprintf "%s step %d mem" name step)
          (Bitset.mem s probe = Nbhd.Inc.mem inc probe)
      done)
    (walk_graphs ())

let test_inc_reset_reuse () =
  let g = Gen.grid 4 4 in
  let n = Graph.n g in
  let inc = Nbhd.Inc.create g in
  let sets = [ [ 0; 1; 5 ]; [ 15 ]; [ 2; 3; 6; 7; 10 ]; [ 0; 4; 8; 12 ] ] in
  List.iter
    (fun elts ->
      List.iter (Nbhd.Inc.add inc) elts;
      let s = Bitset.of_list n elts in
      (* A reused-after-reset arena must agree with a fresh one. *)
      let fresh = Nbhd.Inc.create g in
      List.iter (Nbhd.Inc.add fresh) elts;
      check_int "reused = fresh boundary" (Nbhd.Inc.boundary fresh) (Nbhd.Inc.boundary inc);
      check_int "reused = fresh unique" (Nbhd.Inc.unique fresh) (Nbhd.Inc.unique inc);
      check_inc_state "reused arena" g inc s;
      Nbhd.Inc.reset inc;
      check_int "reset cardinal" 0 (Nbhd.Inc.cardinal inc);
      check_int "reset boundary" 0 (Nbhd.Inc.boundary inc);
      check_int "reset unique" 0 (Nbhd.Inc.unique inc))
    sets

let test_inc_rejects_double_ops () =
  let g = Gen.cycle 5 in
  let inc = Nbhd.Inc.create g in
  Nbhd.Inc.add inc 2;
  (match Nbhd.Inc.add inc 2 with
  | () -> Alcotest.fail "expected Invalid_argument on double add"
  | exception Invalid_argument _ -> ());
  match Nbhd.Inc.remove inc 3 with
  | () -> Alcotest.fail "expected Invalid_argument on absent remove"
  | exception Invalid_argument _ -> ()

(* qcheck property: on random graphs, building any subset through the arena
   reproduces the naive counters. *)
let prop_inc_counts_random_subset g =
  let n = Graph.n g in
  let r = Rng.create (1 + (Graph.m g * 7919) + n) in
  let inc = Nbhd.Inc.create g in
  let s = Bitset.create n in
  let ok = ref true in
  for _ = 1 to 3 do
    Nbhd.Inc.reset inc;
    Bitset.clear_inplace s;
    let size = Rng.int r (n + 1) in
    for _ = 1 to size do
      let v = Rng.int r n in
      if not (Bitset.mem s v) then begin
        Bitset.add_inplace s v;
        Nbhd.Inc.add inc v
      end
    done;
    ok :=
      !ok
      && Nbhd.Inc.boundary inc = Bitset.cardinal (Nbhd.gamma_minus g s)
      && Nbhd.Inc.unique inc = Bitset.cardinal (Nbhd.gamma1 g s)
      && Nbhd.Inc.cardinal inc = Bitset.cardinal s
  done;
  !ok

(* ---- the sharded pre-order enumerator ---- *)

(* The sets [iter] visits, with no cuts, each rebuilt from the previous
   visit's first [kept] slots plus the buffer's slots [kept .. len-1]; the
   retained slots must equal the buffer's. *)
let rebuilt_visits name iter =
  let prev = Array.make 16 0 and prev_len = ref 0 in
  let out = ref [] in
  iter (fun (buf : int array) ~len ~kept ->
      check_true (name ^ " kept bounded") (kept >= 0 && kept <= !prev_len && kept <= len);
      for j = 0 to kept - 1 do
        check_int (name ^ " retained slot") prev.(j) buf.(j)
      done;
      Array.blit buf kept prev kept (len - kept);
      prev_len := len;
      out := Array.to_list (Array.sub prev 0 len) :: !out;
      false);
  List.rev !out

(* Every subset of [0..n-1] with smallest element [a] and size <= kmax, in
   lexicographic order (a prefix sorts before its extensions). *)
let shard_sets n kmax a =
  List.init (1 lsl n) Fun.id
  |> List.filter_map (fun mask ->
         match List.filter (fun v -> mask land (1 lsl v) <> 0) (List.init n Fun.id) with
         | x :: _ as s when x = a && List.length s <= kmax -> Some s
         | _ -> None)
  |> List.sort compare

let test_subshard_enumerator () =
  List.iter
    (fun (n, kmax) ->
      for a = 0 to n - 1 do
        let name = Printf.sprintf "n=%d kmax=%d a=%d" n kmax a in
        let part ~blo ~bhi ~self =
          rebuilt_visits name (Combi.iter_subshard_le_prune n kmax a ~blo ~bhi ~self)
        in
        let whole = part ~blo:(a + 1) ~bhi:n ~self:true in
        check_true (name ^ " each set once, lex pre-order") (whole = shard_sets n kmax a);
        (* Cutting [a+1, n) at any two points gives three parts that, in
           order, visit exactly the whole shard. *)
        for c1 = a + 1 to n do
          for c2 = c1 to n do
            check_true
              (Printf.sprintf "%s parts at %d,%d partition the shard" name c1 c2)
              (part ~blo:(a + 1) ~bhi:c1 ~self:true
               @ part ~blo:c1 ~bhi:c2 ~self:false
               @ part ~blo:c2 ~bhi:n ~self:false
              = whole)
          done
        done
      done)
    [ (6, 3); (7, 7); (5, 1); (8, 4); (4, 2) ]

(* ---- exact measures vs a from-scratch reference minimiser ---- *)

(* Reference implementation of the pre-engine scoring path: enumerate with
   the plain iterator, rebuild a bitset per set, score with the naive
   operators, lex tiebreak on elements. *)
let reference_min g kmax score =
  let n = Graph.n g in
  let buf = Bitset.create n in
  let best = ref None in
  Combi.iter_subsets_le n kmax (fun idxs ->
      Bitset.clear_inplace buf;
      Array.iter (Bitset.add_inplace buf) idxs;
      let v = score buf in
      let improved =
        match !best with
        | None -> true
        | Some (bv, bw) -> v < bv || (v = bv && compare (Bitset.elements buf) (Bitset.elements bw) < 0)
      in
      if improved then best := Some (v, Bitset.copy buf));
  match !best with Some b -> b | None -> Alcotest.fail "reference_min: no sets"

(* Naive inner wireless maximum: every non-empty S' ⊆ S scored through
   [gamma1_excluding], no Gray code involved. *)
let reference_wireless g s =
  let n = Graph.n g in
  let elts = Bitset.to_array s in
  let k = Array.length elts in
  let best = ref 0 in
  Combi.iter_subsets_le k k (fun idxs ->
      let s' = Bitset.create n in
      Array.iter (fun i -> Bitset.add_inplace s' elts.(i)) idxs;
      let u = Bitset.cardinal (Nbhd.gamma1_excluding g s s') in
      if u > !best then best := u);
  float_of_int !best /. float_of_int k

let family_instances () =
  List.mapi
    (fun i (f : Families.family) -> (f.Families.name, f.Families.make (rng ~salt:(900 + i) ()) 8))
    Families.all

let check_same_witnessed name (expected_v, expected_w) (got : Measure.witnessed) =
  check_true
    (Printf.sprintf "%s value bit-identical" name)
    (expected_v = got.Measure.value);
  Alcotest.check bitset_testable (name ^ " witness") expected_w got.Measure.witness

let test_exact_measures_match_reference () =
  List.iter
    (fun (name, g) ->
      let kmax = Measure.max_set_size g in
      if Graph.n g > 0 && kmax > 0 then begin
        let ref_beta = reference_min g kmax (Nbhd.expansion_of_set g) in
        let ref_beta_u = reference_min g kmax (Nbhd.unique_expansion_of_set g) in
        List.iter
          (fun jobs ->
            check_same_witnessed
              (Printf.sprintf "%s beta jobs=%d" name jobs)
              ref_beta
              (Measure.beta_exact ~jobs g);
            check_same_witnessed
              (Printf.sprintf "%s beta_u jobs=%d" name jobs)
              ref_beta_u
              (Measure.beta_u_exact ~jobs g))
          [ 1; 4 ];
        (* The 3^n reference inner loop is only affordable on the smaller
           instances; the families are built with size hint 8 so most
           qualify. *)
        if Graph.n g <= 10 then begin
          let ref_beta_w = reference_min g kmax (reference_wireless g) in
          List.iter
            (fun jobs ->
              check_same_witnessed
                (Printf.sprintf "%s beta_w jobs=%d" name jobs)
                ref_beta_w
                (Measure.beta_w_exact ~jobs g))
            [ 1; 4 ]
        end
      end)
    (family_instances ())

let suite =
  [
    Alcotest.test_case "Inc matches naive on random walks" `Quick test_inc_matches_naive_random_walk;
    Alcotest.test_case "Inc reset allows arena reuse" `Quick test_inc_reset_reuse;
    Alcotest.test_case "Inc rejects invalid add/remove" `Quick test_inc_rejects_double_ops;
    qcheck ~count:60 "Inc counters match naive on random graphs" prop_inc_counts_random_subset
      (arbitrary_graph ~lo:2 ~hi:12);
    Alcotest.test_case "subshard enumerator: lex pre-order, kept, partition" `Quick
      test_subshard_enumerator;
    Alcotest.test_case "exact measures match from-scratch reference" `Quick
      test_exact_measures_match_reference;
  ]
