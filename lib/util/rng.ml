(* State: the four xoshiro256** words s0..s3, stored unboxed at byte
   offsets 0/8/16/24 of a 32-byte buffer. Reading them into let-bound
   locals and writing them back through the bytes primitives keeps every
   [int64] in registers, so a draw allocates nothing (an [int64] record
   field would box a fresh value on every write). *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* splitmix64: used only for seeding / splitting. Its state advances by
   [golden] per output and each output is [mix] of the new state; the
   four steps are unrolled on let-bound locals so seeding boxes nothing. *)
let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let[@inline] of_seed64 seed =
  let t = Bytes.create 32 in
  let s = Int64.add seed golden in
  set64 t 0 (mix s);
  let s = Int64.add s golden in
  set64 t 8 (mix s);
  let s = Int64.add s golden in
  set64 t 16 (mix s);
  set64 t 24 (mix (Int64.add s golden));
  t

let create seed = of_seed64 (Int64.of_int seed)

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256** next *)
let[@inline] next t =
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let tt = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 (Int64.logxor s2 tt);
  set64 t 24 (rotl s3 45);
  result

let int64 t = next t

let split t =
  (* Seed a child from two raw outputs folded through splitmix, so parent and
     child streams do not share xoshiro state. *)
  let a = next t and b = next t in
  of_seed64 (Int64.logxor a (Int64.mul b golden))

let copy = Bytes.copy

let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (next t) 2)

(* Rejection sampling on the top multiple of [bound] below 2^62. *)
let rec draw_below t bound limit =
  let v = bits t in
  if v < limit then v mod bound else draw_below t bound limit

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  draw_below t bound ((max_int / bound) * bound)

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

(* The top 53 bits of a draw; [float] scales them to [0,1). *)
let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

let[@inline] float t = float_of_int (bits53 t) *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (next t) 1L = 1L

let bernoulli t p = if p >= 1.0 then true else if p <= 0.0 then false else float t < p

let coin_pow2 t k =
  if k < 0 || k > 61 then invalid_arg "Rng.coin_pow2: k must be in [0, 61]";
  (* [bernoulli t 2^-k] compares v * 2^-53 < 2^-k, i.e. v < 2^(53-k); past
     k = 53 only v = 0 is below the threshold. *)
  if k = 0 then true
  else
    let v = bits53 t in
    if k <= 53 then v < 1 lsl (53 - k) else v = 0

let geometric t p =
  if not (p > 0.0 && p <= 1.0) then invalid_arg "Rng.geometric: p must be in (0,1]";
  if p >= 1.0 then 0
  else
    let u = float t in
    (* Inverse CDF: floor(log(1-u) / log(1-p)). *)
    let v = log1p (-.u) /. log1p (-.p) in
    int_of_float (Float.floor v)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

let sample_without_replacement t n k =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Floyd's algorithm: O(k) draws, exact uniformity over k-subsets. *)
  let chosen = Hashtbl.create (2 * k) in
  let out = Array.make k 0 in
  let idx = ref 0 in
  for j = n - k to n - 1 do
    let v = int t (j + 1) in
    let v = if Hashtbl.mem chosen v then j else v in
    Hashtbl.add chosen v ();
    out.(!idx) <- v;
    incr idx
  done;
  shuffle t out;
  out

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let subset_bernoulli t n p =
  if p <= 0.0 then []
  else if p >= 1.0 then List.init n (fun i -> i)
  else begin
    (* Skip-ahead sampling: jump between included indices with geometric
       gaps, so cost is O(np) rather than O(n) when p is small. *)
    let acc = ref [] in
    let i = ref (geometric t p) in
    while !i < n do
      acc := !i :: !acc;
      i := !i + 1 + geometric t p
    done;
    List.rev !acc
  end
