exception Overflow

let binomial n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let acc = ref 1 in
    for i = 1 to k do
      (* Multiply before dividing keeps the running value integral; check
         for overflow on the multiply. *)
      let next_num = n - k + i in
      if !acc > max_int / next_num then raise Overflow;
      acc := !acc * next_num / i
    done;
    !acc
  end

let iter_subsets_of_size n k f =
  if k >= 1 && k <= n then begin
    let a = Array.init k (fun i -> i) in
    let continue_ = ref true in
    while !continue_ do
      f a;
      (* Advance to the next combination in lexicographic order. *)
      let i = ref (k - 1) in
      while !i >= 0 && a.(!i) = n - k + !i do
        decr i
      done;
      if !i < 0 then continue_ := false
      else begin
        a.(!i) <- a.(!i) + 1;
        for j = !i + 1 to k - 1 do
          a.(j) <- a.(j - 1) + 1
        done
      end
    done
  end

let iter_subsets_le n k f =
  for size = 1 to min k n do
    iter_subsets_of_size n size f
  done

let iter_all_subsets n f =
  if n > 30 then invalid_arg "Combi.iter_all_subsets: n too large";
  for mask = 0 to (1 lsl n) - 1 do
    f mask
  done

(* ---- prunable sharded enumeration ----

   Branch-and-bound needs the enumeration to expose its prefix tree: a
   node is a sorted prefix, its children extend it by one larger element,
   and a whole subtree must be skippable once a bound proves it cannot
   beat the incumbent. The walk is a pre-order DFS over increasing
   sequences: each set is visited immediately after its longest proper
   prefix, which is exactly the order an incremental arena absorbs for
   free, and is also lexicographic order. *)

let iter_subshard_le_prune n kmax a ~blo ~bhi ~self f =
  if kmax < 1 || a < 0 || a >= n then invalid_arg "Combi.iter_subshard_le_prune"
  else begin
    let cap = min kmax (n - a) in
    let buf = Array.make cap a in
    (* [kept] = leading slots shared with the previously visited set; the
       next node is either the current one's first child (shares all of
       it) or a sibling at some shallower slot (the loops below clamp). *)
    let kept = ref 0 in
    let visit len =
      let skip = f buf ~len ~kept:!kept in
      kept := len;
      skip
    in
    let rec extend len =
      if len < cap then
        for v = buf.(len - 1) + 1 to n - 1 do
          if !kept > len then kept := len;
          buf.(len) <- v;
          if not (visit (len + 1)) then extend (len + 1)
        done
    in
    let self_skip = if self then visit 1 else false in
    if (not self_skip) && cap >= 2 then begin
      let lo = max blo (a + 1) and hi = min bhi n in
      for b = lo to hi - 1 do
        if !kept > 1 then kept := 1;
        buf.(1) <- b;
        if not (visit 2) then extend 2
      done
    end
  end

(* Σ_{j=0..k} C(m, j) as a float — the work-unit weight of a prefix with
   [m] addable elements and [k] slots left. Float on purpose: weights
   only steer the splitter, and the exact counts overflow the native int
   long before the guards would admit the enumeration anyway. *)
let count_subsets_upto_float m k =
  if m < 0 then 0.0
  else begin
    let acc = ref 1.0 and c = ref 1.0 in
    let k = min k m in
    for j = 1 to k do
      c := !c *. float_of_int (m - j + 1) /. float_of_int j;
      acc := !acc +. !c
    done;
    !acc
  end

let subsets_count_le n k =
  let acc = ref 0 in
  for size = 1 to min k n do
    let c = binomial n size in
    if !acc > max_int - c then raise Overflow;
    acc := !acc + c
  done;
  !acc
