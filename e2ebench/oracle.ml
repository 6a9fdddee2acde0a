(* Answer checks written from the definitions, sharing no algorithm with
   the library: the benchmark trusts these, not the kernels it times. *)

(* Vertices reachable from [source] (source included), by breadth-first
   search over packed CSR rows. *)
let reachable ~offsets ~neighbors ~source =
  let n = Array.length offsets - 1 in
  let seen = Bytes.make n '\000' in
  let queue = Array.make n 0 in
  Bytes.set seen source '\001';
  queue.(0) <- source;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    for i = offsets.(v) to offsets.(v + 1) - 1 do
      let w = neighbors.(i) in
      if Bytes.get seen w = '\000' then begin
        Bytes.set seen w '\001';
        queue.(!tail) <- w;
        incr tail
      end
    done
  done;
  !tail

(* Vertices outside S = [members] by how many neighbors they have in S:
   [(at least one, exactly one)]. *)
let outside_counts adj members =
  let inside = Array.make (Array.length adj) false in
  Array.iter (fun v -> inside.(v) <- true) members;
  let some = ref 0 and one = ref 0 in
  Array.iteri
    (fun w nbrs ->
      if not inside.(w) then begin
        let c = Array.fold_left (fun c u -> if inside.(u) then c + 1 else c) 0 nbrs in
        if c >= 1 then incr some;
        if c = 1 then incr one
      end)
    adj;
  (!some, !one)

let per_member count members = float_of_int count /. float_of_int (Array.length members)

(* |Γ⁻(S)|/|S|: external neighbors per member. *)
let expansion adj members = per_member (fst (outside_counts adj members)) members

(* |Γ¹(S)|/|S|: outside vertices with exactly one neighbor in S, per member. *)
let unique_expansion adj members = per_member (snd (outside_counts adj members)) members

(* max over non-empty S′ ⊆ S of |Γ¹_S(S′)|/|S|: every sub-mask of S is
   scored from scratch against the vertices outside S. *)
let wireless_expansion adj members =
  let n = Array.length adj and k = Array.length members in
  let in_s = Array.make n false in
  Array.iter (fun v -> in_s.(v) <- true) members;
  let in_sub = Array.make n false in
  let best = ref 0 in
  for mask = 1 to (1 lsl k) - 1 do
    Array.iteri (fun i v -> in_sub.(v) <- (mask lsr i) land 1 = 1) members;
    let hits = ref 0 in
    Array.iteri
      (fun w nbrs ->
        if not in_s.(w) then
          if Array.fold_left (fun c u -> if in_sub.(u) then c + 1 else c) 0 nbrs = 1 then incr hits)
      adj;
    if !hits > !best then best := !hits
  done;
  per_member !best members

(* Number of non-empty subsets of an n-set with at most [kmax] elements. *)
let subsets_up_to n kmax =
  let c = ref 1.0 and total = ref 0.0 in
  for k = 1 to kmax do
    c := !c *. float_of_int (n - k + 1) /. float_of_int k;
    total := !total +. !c
  done;
  !total
