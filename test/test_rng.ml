module Rng = Wx_util.Rng
open Common

let test_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check_true "same stream" (Rng.int64 a = Rng.int64 b)
  done

let test_copy () =
  let a = Rng.create 9 in
  let _ = Rng.int64 a in
  let b = Rng.copy a in
  for _ = 1 to 50 do
    check_true "copy matches" (Rng.int64 a = Rng.int64 b)
  done

let test_distinct_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  check_true "streams differ" (!same < 4)

let test_split_independent () =
  let a = Rng.create 3 in
  let child = Rng.split a in
  (* Drawing from the parent must not affect the child's stream. *)
  let c1 = Rng.copy child in
  let _ = Rng.int64 a in
  for _ = 1 to 20 do
    check_true "child unaffected" (Rng.int64 child = Rng.int64 c1)
  done

let test_int_bounds () =
  let r = rng () in
  for _ = 1 to 10_000 do
    let v = Rng.int r 7 in
    check_true "in range" (v >= 0 && v < 7)
  done

let test_int_uniformity () =
  let r = rng ~salt:1 () in
  let counts = Array.make 8 0 in
  let trials = 80_000 in
  for _ = 1 to trials do
    let v = Rng.int r 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = trials / 8 in
      if abs (c - expected) > expected / 5 then
        Alcotest.failf "bucket %d count %d far from %d" i c expected)
    counts

let test_int_in () =
  let r = rng ~salt:2 () in
  for _ = 1 to 1000 do
    let v = Rng.int_in r (-5) 5 in
    check_true "int_in range" (v >= -5 && v <= 5)
  done

let test_float_range () =
  let r = rng ~salt:3 () in
  for _ = 1 to 10_000 do
    let v = Rng.float r in
    check_true "[0,1)" (v >= 0.0 && v < 1.0)
  done

let test_bernoulli_mean () =
  let r = rng ~salt:4 () in
  let hits = ref 0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let mean = float_of_int !hits /. float_of_int trials in
  check_true "mean near 0.3" (Float.abs (mean -. 0.3) < 0.02)

let test_bernoulli_edges () =
  let r = rng ~salt:5 () in
  check_true "p=0 never" (not (Rng.bernoulli r 0.0));
  check_true "p=1 always" (Rng.bernoulli r 1.0)

let test_geometric_mean () =
  let r = rng ~salt:6 () in
  let acc = ref 0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    acc := !acc + Rng.geometric r 0.25
  done;
  (* mean of geometric(p) counting failures = (1-p)/p = 3. *)
  let mean = float_of_int !acc /. float_of_int trials in
  check_true "geometric mean near 3" (Float.abs (mean -. 3.0) < 0.15)

let test_geometric_p1 () =
  let r = rng ~salt:7 () in
  for _ = 1 to 100 do
    check_int "geometric(1) = 0" 0 (Rng.geometric r 1.0)
  done

let test_shuffle_is_permutation () =
  let r = rng ~salt:8 () in
  for _ = 1 to 100 do
    let a = Array.init 30 (fun i -> i) in
    Rng.shuffle r a;
    let sorted = Array.copy a in
    Array.sort compare sorted;
    check_true "permutation" (sorted = Array.init 30 (fun i -> i))
  done

let test_permutation_uniform_position () =
  (* Element 0 should land in each slot with roughly equal frequency. *)
  let r = rng ~salt:9 () in
  let n = 6 in
  let counts = Array.make n 0 in
  let trials = 30_000 in
  for _ = 1 to trials do
    let p = Rng.permutation r n in
    let pos = ref 0 in
    Array.iteri (fun i v -> if v = 0 then pos := i) p;
    counts.(!pos) <- counts.(!pos) + 1
  done;
  Array.iter
    (fun c ->
      let expected = trials / n in
      check_true "roughly uniform" (abs (c - expected) < expected / 4))
    counts

let test_sample_without_replacement () =
  let r = rng ~salt:10 () in
  for _ = 1 to 500 do
    let k = 1 + Rng.int r 20 in
    let n = k + Rng.int r 50 in
    let sample = Rng.sample_without_replacement r n k in
    check_int "size" k (Array.length sample);
    let tbl = Hashtbl.create k in
    Array.iter
      (fun v ->
        check_true "range" (v >= 0 && v < n);
        check_true "distinct" (not (Hashtbl.mem tbl v));
        Hashtbl.add tbl v ())
      sample
  done

let test_sample_full () =
  let r = rng ~salt:11 () in
  let sample = Rng.sample_without_replacement r 10 10 in
  let sorted = Array.copy sample in
  Array.sort compare sorted;
  check_true "full sample is 0..9" (sorted = Array.init 10 (fun i -> i))

let test_subset_bernoulli_bounds () =
  let r = rng ~salt:12 () in
  for _ = 1 to 200 do
    let l = Rng.subset_bernoulli r 50 0.3 in
    List.iter (fun v -> check_true "range" (v >= 0 && v < 50)) l;
    let rec sorted = function
      | [] | [ _ ] -> true
      | x :: (y :: _ as rest) -> x < y && sorted rest
    in
    check_true "sorted strictly" (sorted l)
  done

let test_subset_bernoulli_mean () =
  let r = rng ~salt:13 () in
  let acc = ref 0 in
  let trials = 5000 in
  for _ = 1 to trials do
    acc := !acc + List.length (Rng.subset_bernoulli r 100 0.2)
  done;
  let mean = float_of_int !acc /. float_of_int trials in
  check_true "mean near 20" (Float.abs (mean -. 20.0) < 1.0)

let test_subset_bernoulli_edges () =
  let r = rng ~salt:14 () in
  check_true "p=0 empty" (Rng.subset_bernoulli r 10 0.0 = []);
  check_int "p=1 full" 10 (List.length (Rng.subset_bernoulli r 10 1.0))

let test_pick () =
  let r = rng ~salt:15 () in
  let arr = [| 3; 5; 9 |] in
  for _ = 1 to 100 do
    check_true "member" (Array.mem (Rng.pick r arr) arr)
  done

(* --- golden vectors ---

   Recorded from the int64-record implementation this module replaced;
   any change to seeding, the xoshiro step or a helper's bit extraction
   shows up here. *)

let golden_int64 =
  [
    ( 0,
      [ 0x99ec5f36cb75f2b4L; 0xbf6e1f784956452aL; 0x1a5f849d4933e6e0L; 0x6aa594f1262d2d2cL;
        0xbba5ad4a1f842e59L; 0xffef8375d9ebcacaL; 0x6c160deed2f54c98L; 0x8920ad648fc30a3fL ] );
    ( 1,
      [ 0xb3f2af6d0fc710c5L; 0x853b559647364ceaL; 0x92f89756082a4514L; 0x642e1c7bc266a3a7L;
        0xb27a48e29a233673L; 0x24c123126ffda722L; 0x123004ef8df510e6L; 0x61954dcc47b1e89dL ] );
    ( 424242,
      [ 0xf0a0a11c99bb8bf4L; 0x30858dbe5e6afacbL; 0x9ee0f12abe600718L; 0x74529b44f9747ffcL;
        0x9a0f9752c482b29cL; 0xdb5d4094407e500cL; 0xa5c96f94aca5fd21L; 0xc316021ae6ef9cb0L ] );
  ]

let draws k f seed =
  let r = Rng.create seed in
  List.init k (fun _ -> f r)

let check_int64s msg expected actual =
  Alcotest.(check (list int64)) msg expected actual

let test_golden_int64 () =
  List.iter
    (fun (seed, expected) ->
      check_int64s (Printf.sprintf "int64 seed %d" seed) expected (draws 8 Rng.int64 seed))
    golden_int64

let test_golden_helpers () =
  Alcotest.(check (list int))
    "bits"
    [ 0x3c282847266ee2fd; 0xc21636f979abeb2; 0x27b83c4aaf9801c6; 0x1d14a6d13e5d1fff;
      0x2683e5d4b120aca7; 0x36d75025101f9403; 0x29725be52b297f48; 0x30c58086b9bbe72c ]
    (draws 8 Rng.bits 424242);
  Alcotest.(check (list int))
    "int 1000" [ 733; 538; 398; 375; 543; 579; 408; 524 ]
    (draws 8 (fun r -> Rng.int r 1000) 424242);
  Alcotest.(check (list (float 0.0)))
    "float"
    [ 0x1.e141423933771p-1; 0x1.842c6df2f357cp-3; 0x1.3dc1e2557ccp-1; 0x1.d14a6d13e5d1ep-2;
      0x1.341f2ea589056p-1; 0x1.b6ba812880fcap-1; 0x1.4b92df29594bfp-1; 0x1.862c0435cddf3p-1 ]
    (draws 8 Rng.float 424242);
  Alcotest.(check (list bool))
    "bool" [ false; true; false; false; false; false; true; false ]
    (draws 8 Rng.bool 424242)

let test_golden_split_copy () =
  let r = Rng.create 424242 in
  let child = Rng.split r in
  check_int64s "split child"
    [ 0x77ef941bb227a648L; 0xedac9cd88b80265aL; 0x568d2b11294adc76L; 0x22052e280f41d4b2L ]
    (List.init 4 (fun _ -> Rng.int64 child));
  check_int64s "parent after split (two draws consumed)"
    [ 0x9ee0f12abe600718L; 0x74529b44f9747ffcL; 0x9a0f9752c482b29cL; 0xdb5d4094407e500cL ]
    (List.init 4 (fun _ -> Rng.int64 r));
  let r = Rng.create 424242 in
  ignore (Rng.int64 r);
  let c = Rng.copy r in
  check_int64s "copy"
    [ 0x30858dbe5e6afacbL; 0x9ee0f12abe600718L; 0x74529b44f9747ffcL; 0x9a0f9752c482b29cL ]
    (List.init 4 (fun _ -> Rng.int64 c))

(* --- coin_pow2 --- *)

(* Same result and same draw count as the float coin it replaces: after
   the coin, both copies must produce the same next output. *)
let test_coin_equivalence =
  qcheck ~count:2000 "coin_pow2 = bernoulli 2^-k"
    (fun (seed, k) ->
      let a = Rng.create seed in
      let b = Rng.copy a in
      let ca = Rng.coin_pow2 a k in
      let cb = Rng.bernoulli b (1.0 /. float_of_int (1 lsl k)) in
      ca = cb && Rng.int64 a = Rng.int64 b)
    QCheck.(pair int (int_range 0 61))

let test_coin_edges () =
  (* k = 0 is the one coin that draws nothing; k outside the exact domain
     is rejected rather than wrapped by [1 lsl k]. *)
  let r = rng ~salt:16 () in
  let c = Rng.copy r in
  check_true "k=0 true" (Rng.coin_pow2 r 0);
  check_true "k=0 draws nothing" (Rng.int64 r = Rng.int64 c);
  List.iter
    (fun k ->
      match Rng.coin_pow2 r k with
      | _ -> Alcotest.failf "coin_pow2 %d should raise" k
      | exception Invalid_argument _ -> ())
    [ -1; 62; 63; max_int ];
  let hits = ref 0 and trials = 64_000 in
  for _ = 1 to trials do
    if Rng.coin_pow2 r 3 then incr hits
  done;
  check_true "k=3 mean near 1/8" (abs (!hits - (trials / 8)) < trials / 80)

(* 10^5 draws of each allocation-free helper stay under a constant budget
   ([Gc.minor_words] boxes its own result), so each draw costs 0 words. *)
let test_draws_allocate_nothing () =
  let r = rng ~salt:17 () in
  let draws = 100_000 and budget = 64.0 in
  let probe name f =
    let acc = ref 0 in
    let w0 = Gc.minor_words () in
    for _ = 1 to draws do
      acc := !acc lxor f r
    done;
    let dw = Gc.minor_words () -. w0 in
    ignore (Sys.opaque_identity !acc);
    check_true (Printf.sprintf "%s: %d draws allocate %.0f words" name draws dw) (dw < budget)
  in
  probe "bits" Rng.bits;
  probe "int" (fun r -> Rng.int r 1000);
  probe "bool" (fun r -> Bool.to_int (Rng.bool r));
  probe "coin_pow2" (fun r -> Bool.to_int (Rng.coin_pow2 r 5))

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "copy" `Quick test_copy;
    Alcotest.test_case "distinct seeds" `Quick test_distinct_seeds;
    Alcotest.test_case "split independence" `Quick test_split_independent;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int uniformity" `Slow test_int_uniformity;
    Alcotest.test_case "int_in" `Quick test_int_in;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "bernoulli mean" `Slow test_bernoulli_mean;
    Alcotest.test_case "bernoulli edges" `Quick test_bernoulli_edges;
    Alcotest.test_case "geometric mean" `Slow test_geometric_mean;
    Alcotest.test_case "geometric p=1" `Quick test_geometric_p1;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "permutation uniformity" `Slow test_permutation_uniform_position;
    Alcotest.test_case "sample w/o replacement" `Quick test_sample_without_replacement;
    Alcotest.test_case "sample full" `Quick test_sample_full;
    Alcotest.test_case "subset bernoulli bounds" `Quick test_subset_bernoulli_bounds;
    Alcotest.test_case "subset bernoulli mean" `Slow test_subset_bernoulli_mean;
    Alcotest.test_case "subset bernoulli edges" `Quick test_subset_bernoulli_edges;
    Alcotest.test_case "pick" `Quick test_pick;
    Alcotest.test_case "golden int64" `Quick test_golden_int64;
    Alcotest.test_case "golden helpers" `Quick test_golden_helpers;
    Alcotest.test_case "golden split and copy" `Quick test_golden_split_copy;
    test_coin_equivalence;
    Alcotest.test_case "coin_pow2 edges" `Quick test_coin_edges;
    Alcotest.test_case "draws allocate nothing" `Quick test_draws_allocate_nothing;
  ]
