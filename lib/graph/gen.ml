module Rng = Wx_util.Rng

let cycle n =
  if n < 3 then invalid_arg "Gen.cycle: n must be >= 3";
  Graph.of_edges n (List.init n (fun i -> (i, (i + 1) mod n)))

let path n =
  if n < 1 then invalid_arg "Gen.path";
  Graph.of_edges n (List.init (n - 1) (fun i -> (i, i + 1)))

let star n =
  if n < 1 then invalid_arg "Gen.star";
  Graph.of_edges n (List.init (n - 1) (fun i -> (0, i + 1)))

let complete n =
  let es = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      es := (u, v) :: !es
    done
  done;
  Graph.of_edges n !es

let complete_bipartite a b =
  let es = ref [] in
  for u = 0 to a - 1 do
    for v = 0 to b - 1 do
      es := (u, a + v) :: !es
    done
  done;
  Graph.of_edges (a + b) !es

let grid w h =
  if w < 1 || h < 1 then invalid_arg "Gen.grid";
  let idx x y = (y * w) + x in
  let es = ref [] in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      if x + 1 < w then es := (idx x y, idx (x + 1) y) :: !es;
      if y + 1 < h then es := (idx x y, idx x (y + 1)) :: !es
    done
  done;
  Graph.of_edges (w * h) !es

let torus w h =
  if w < 3 || h < 3 then invalid_arg "Gen.torus: both sides must be >= 3";
  let idx x y = (y * w) + x in
  let es = ref [] in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      es := (idx x y, idx ((x + 1) mod w) y) :: !es;
      es := (idx x y, idx x ((y + 1) mod h)) :: !es
    done
  done;
  Graph.of_edges (w * h) !es

let hypercube d =
  if d < 1 || d > 20 then invalid_arg "Gen.hypercube";
  let n = 1 lsl d in
  let es = ref [] in
  for v = 0 to n - 1 do
    for b = 0 to d - 1 do
      let w = v lxor (1 lsl b) in
      if w > v then es := (v, w) :: !es
    done
  done;
  Graph.of_edges n !es

let binary_tree depth =
  if depth < 0 || depth > 25 then invalid_arg "Gen.binary_tree";
  let n = (1 lsl (depth + 1)) - 1 in
  let internal = (1 lsl depth) - 1 in
  let es = ref [] in
  for v = 0 to internal - 1 do
    es := (v, (2 * v) + 1) :: (v, (2 * v) + 2) :: !es
  done;
  Graph.of_edges n !es

let gnp rng n p =
  let es = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.bernoulli rng p then es := (u, v) :: !es
    done
  done;
  Graph.of_edges n !es

let gnm rng n m =
  if n < 2 && m > 0 then invalid_arg "Gen.gnm: no edges fit on < 2 vertices";
  if m < 0 then invalid_arg "Gen.gnm: negative m";
  (* Max simple-edge count without n*(n-1) overflow for huge n: for
     n >= 2^31 every m that fits in memory is fine anyway. *)
  if n < 1 lsl 31 && m > n * (n - 1) / 2 then
    invalid_arg "Gen.gnm: m exceeds the simple-graph maximum";
  (* Rejection-sample m distinct edges: O(m) expected draws for the sparse
     regime this exists for (m = O(n)), vs gnp's O(n²) coin flips. Keys
     pack as min·n + max, which stays within native int for n ≤ 2^31.
     Accepted pairs go straight into a flat endpoint array. *)
  let seen = Hashtbl.create (2 * m) in
  let ends = Array.make (2 * m) 0 in
  let have = ref 0 in
  while !have < m do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then begin
      let key = if u < v then (u * n) + v else (v * n) + u in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        ends.(2 * !have) <- u;
        ends.((2 * !have) + 1) <- v;
        incr have
      end
    end
  done;
  Graph.of_edge_array n ends

let random_regular_config rng n d =
  if d >= n || d < 1 then invalid_arg "Gen.random_regular_config: need 1 <= d < n";
  if n * d mod 2 <> 0 then invalid_arg "Gen.random_regular_config: n*d must be even";
  (* Configuration model with simplification: pair the n·d half-edge stubs
     uniformly and simply DROP self-loops (duplicates collapse inside
     of_edges). Degrees come out ≤ d with the deficit vanishing for sparse
     d — the standard near-regular generator when exact regularity is not
     worth the repair loop at n = 10^6+. *)
  let stubs = Array.init (n * d) (fun i -> i / d) in
  Rng.shuffle rng stubs;
  (* Compact the non-loop pairs to the front, in place. *)
  let k = ref 0 in
  for i = 0 to (n * d / 2) - 1 do
    let u = stubs.(2 * i) and v = stubs.((2 * i) + 1) in
    if u <> v then begin
      stubs.(2 * !k) <- u;
      stubs.((2 * !k) + 1) <- v;
      incr k
    end
  done;
  Graph.of_edge_array ~edges:!k n stubs

let random_regular rng n d =
  if d >= n || d < 1 then invalid_arg "Gen.random_regular: need 1 <= d < n";
  if n * d mod 2 <> 0 then invalid_arg "Gen.random_regular: n*d must be even";
  (* Configuration model with edge-swap repair: pair up the n·d half-edge
     stubs uniformly, then fix self-loops and duplicate edges by swapping a
     bad pair's endpoint with a random other pair (the standard repair that
     keeps the degree sequence intact). Restarting instead would need
     exp(Θ(d²)) attempts for d ≳ 5. *)
  let stubs = Array.init (n * d) (fun i -> i / d) in
  Rng.shuffle rng stubs;
  let pairs = n * d / 2 in
  let a i = stubs.(2 * i) and b i = stubs.((2 * i) + 1) in
  let key u v = if u < v then (u * n) + v else (v * n) + u in
  let counts = Hashtbl.create (n * d) in
  let incr_edge u v =
    let k = key u v in
    Hashtbl.replace counts k (1 + try Hashtbl.find counts k with Not_found -> 0)
  in
  let decr_edge u v =
    let k = key u v in
    let c = Hashtbl.find counts k in
    if c = 1 then Hashtbl.remove counts k else Hashtbl.replace counts k (c - 1)
  in
  let bad i = a i = b i || Hashtbl.find counts (key (a i) (b i)) > 1 in
  for i = 0 to pairs - 1 do
    if a i <> b i then incr_edge (a i) (b i)
  done;
  let budget = ref (200 * n * d) in
  let count u v = try Hashtbl.find counts (key u v) with Not_found -> 0 in
  let do_swap i j =
    if a i <> b i then decr_edge (a i) (b i);
    if a j <> b j then decr_edge (a j) (b j);
    let tmp = stubs.((2 * i) + 1) in
    stubs.((2 * i) + 1) <- stubs.((2 * j) + 1);
    stubs.((2 * j) + 1) <- tmp;
    if a i <> b i then incr_edge (a i) (b i);
    if a j <> b j then incr_edge (a j) (b j)
  in
  (* Repair one bad pair: prefer a partner j for which the swap makes both
     resulting pairs simple and fresh; fall back to a random shake if none
     of the sampled partners works. *)
  let fix_pair i =
    let attempts = min pairs 400 in
    let rec try_partner k =
      if k = 0 then do_swap i (Rng.int rng pairs)
      else begin
        let j = Rng.int rng pairs in
        let u1 = a i and v1 = b j and u2 = a j and v2 = b i in
        let fresh =
          j <> i && u1 <> v1 && u2 <> v2
          && count u1 v1 = 0
          && count u2 v2 = 0
          && not (u1 = u2 && v1 = v2)
          && not (u1 = v2 && v1 = u2)
        in
        if fresh then do_swap i j else try_partner (k - 1)
      end
    in
    try_partner attempts
  in
  let rec repair () =
    let dirty = ref false in
    for i = 0 to pairs - 1 do
      if bad i then begin
        if !budget <= 0 then failwith "Gen.random_regular: repair budget exhausted";
        decr budget;
        dirty := true;
        fix_pair i
      end
    done;
    if !dirty then repair ()
  in
  repair ();
  let es = ref [] in
  for i = 0 to pairs - 1 do
    es := (a i, b i) :: !es
  done;
  Graph.of_edges n !es

let random_bipartite_sdeg rng ~s ~n ~d =
  if d > n then invalid_arg "Gen.random_bipartite_sdeg: d > n";
  let ends = Array.make (2 * s * d) 0 in
  for u = 0 to s - 1 do
    let nbrs = Rng.sample_without_replacement rng n d in
    Array.iteri
      (fun i w ->
        let e = (u * d) + i in
        ends.(2 * e) <- u;
        ends.((2 * e) + 1) <- w)
      nbrs
  done;
  Bipartite.of_edge_array ~s ~n ends

let margulis m =
  if m < 2 then invalid_arg "Gen.margulis";
  let idx x y = (((y mod m) + m) mod m * m) + (((x mod m) + m) mod m) in
  (* Four targets per vertex; loops are skipped and repeated edges are
     collapsed by [of_edge_array]. *)
  let ends = Array.make (8 * m * m) 0 in
  let e = ref 0 in
  let add v w =
    if w <> v then begin
      ends.(2 * !e) <- v;
      ends.((2 * !e) + 1) <- w;
      incr e
    end
  in
  for x = 0 to m - 1 do
    for y = 0 to m - 1 do
      let v = idx x y in
      add v (idx (x + y) y);
      add v (idx (x + y + 1) y);
      add v (idx x (y + x));
      add v (idx x (y + x + 1))
    done
  done;
  Graph.of_edge_array ~edges:!e (m * m) ends

let double_cover g =
  let n = Graph.n g in
  let es = ref [] in
  Graph.iter_edges g (fun u v ->
      es := (u, v + n) :: (v, u + n) :: !es);
  Graph.of_edges (2 * n) !es

let bipartite_matching rng n =
  if n < 1 then invalid_arg "Gen.bipartite_matching";
  let perm = Rng.permutation rng n in
  Bipartite.of_edge_array ~s:n ~n (Array.init (2 * n) (fun i -> if i land 1 = 0 then i / 2 else perm.(i / 2)))

let lollipop clique tail =
  if clique < 3 || tail < 1 then invalid_arg "Gen.lollipop";
  let es = ref [] in
  for u = 0 to clique - 1 do
    for v = u + 1 to clique - 1 do
      es := (u, v) :: !es
    done
  done;
  es := (0, clique) :: !es;
  for i = 0 to tail - 2 do
    es := (clique + i, clique + i + 1) :: !es
  done;
  Graph.of_edges (clique + tail) !es

let barbell k =
  if k < 3 then invalid_arg "Gen.barbell";
  let es = ref [] in
  for u = 0 to k - 1 do
    for v = u + 1 to k - 1 do
      es := (u, v) :: !es;
      es := (k + u, k + v) :: !es
    done
  done;
  es := (0, k) :: !es;
  Graph.of_edges (2 * k) !es

let barabasi_albert rng n m =
  if m < 1 || n <= m then invalid_arg "Gen.barabasi_albert: need n > m >= 1";
  (* Endpoint pool: each edge contributes both endpoints, so sampling the
     pool uniformly is degree-proportional sampling. Seed with a K_{m+1};
     every later vertex adds exactly m edges, so the pool's final size is
     known up front and it fills through a cursor. *)
  let pool = Array.make (2 * ((m * (m + 1) / 2) + ((n - m - 1) * m))) 0 in
  let len = ref 0 in
  let push x =
    pool.(!len) <- x;
    incr len
  in
  let es = ref [] in
  let seed = ref [] in
  for u = 0 to m do
    for v = u + 1 to m do
      es := (u, v) :: !es;
      seed := u :: v :: !seed
    done
  done;
  (* Newest-first: the order every pinned graph was drawn against. *)
  List.iter push !seed;
  for v = m + 1 to n - 1 do
    let chosen = Hashtbl.create m in
    let attempts = ref 0 in
    while Hashtbl.length chosen < m && !attempts < 50 * m do
      incr attempts;
      let target = pool.(Rng.int rng !len) in
      if target <> v then Hashtbl.replace chosen target ()
    done;
    (* Fallback for pathological pools: link to arbitrary distinct earlier
       vertices. *)
    let u = ref 0 in
    while Hashtbl.length chosen < m do
      if !u <> v then Hashtbl.replace chosen !u ();
      incr u
    done;
    let fresh = Hashtbl.fold (fun t () acc -> t :: acc) chosen [] in
    List.iter
      (fun t ->
        es := (v, t) :: !es;
        push v;
        push t)
      fresh
  done;
  Graph.of_edges n !es
