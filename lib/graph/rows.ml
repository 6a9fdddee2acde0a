(* The counting-sort passes of [Graph] and [Bipartite] over compressed
   sparse rows: row r is [adjacency.(offsets.(r) .. offsets.(r + 1) - 1)].
   [scatter] and [transpose] append to row r of [dst] at [cursor.(r)], which
   the caller starts as a copy of [dst]'s row starts. *)

(* Row lengths, row r's at [offsets.(r + 1)], into row starts, in place. *)
let starts offsets =
  for r = 0 to Array.length offsets - 2 do
    offsets.(r + 1) <- offsets.(r + 1) + offsets.(r)
  done

let[@inline] push cursor dst r x =
  dst.(cursor.(r)) <- x;
  cursor.(r) <- cursor.(r) + 1

(* For each edge i < k, append [ends.(2i)] to row [ends.(2i + 1)] and, when
   [both], [ends.(2i + 1)] to row [ends.(2i)]: one pass over [ends]. *)
let scatter ~cursor ends k ~both dst =
  for i = 0 to k - 1 do
    let u = ends.(2 * i) and w = ends.((2 * i) + 1) in
    push cursor dst w u;
    if both then push cursor dst u w
  done

(* Append r to row x for every x in row r. Rows r are walked ascending, so
   every row of [dst] comes out sorted. *)
let transpose ~cursor offsets adjacency dst =
  for r = 0 to Array.length offsets - 2 do
    for i = offsets.(r) to offsets.(r + 1) - 1 do
      push cursor dst adjacency.(i) r
    done
  done

(* Keep the first copy of each entry within each (unsorted) row, packing the
   kept rows to the front of [adjacency] and rewriting [offsets] to match.
   [mark] is indexed by entry and must hold no row index on entry (-1, say):
   [mark.(x) = r] once x is kept in row r. *)
let pack ~mark offsets adjacency =
  let k = ref 0 and start = ref 0 in
  for r = 0 to Array.length offsets - 2 do
    let stop = offsets.(r + 1) in
    for i = !start to stop - 1 do
      let x = adjacency.(i) in
      if mark.(x) <> r then begin
        mark.(x) <- r;
        adjacency.(!k) <- x;
        incr k
      end
    done;
    start := stop;
    offsets.(r + 1) <- !k
  done
