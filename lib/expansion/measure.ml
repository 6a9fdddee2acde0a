module Bitset = Wx_util.Bitset
module Graph = Wx_graph.Graph
module Combi = Wx_util.Combi
module Guard = Wx_util.Guard
module Rng = Wx_util.Rng
module Pool = Wx_par.Pool
module Metrics = Wx_obs.Metrics
module Span = Wx_obs.Span
module Work = Wx_obs.Work

let m_sets_scored = Metrics.counter "expansion.sets_scored"
let m_sampled_sets = Metrics.counter "expansion.sampled_sets"
let m_gray_flips = Metrics.counter "expansion.gray_flips"
let m_improvements = Metrics.counter "expansion.witness_improvements"
let m_work_rejected = Metrics.counter "expansion.work_rejected"
let m_inner_pruned = Metrics.counter "expansion.sampled_inner_pruned"
let m_sampled_clamped = Metrics.counter "expansion.sampled_clamped"
let m_subtrees_pruned = Metrics.counter "expansion.subtrees_pruned"
let work_subtrees_pruned = Work.kind "subtrees_pruned"

type witnessed = { value : float; witness : Bitset.t }

(* Rebinding, not a fresh exception: [Measure.Too_large] and
   [Wx_util.Guard.Too_large] are the same constructor, so a handler
   written against either name catches work refused by any layer —
   including [Nbhd.gray_walk]. *)
exception Too_large = Guard.Too_large

let max_set_size ?(alpha = 0.5) g =
  if alpha <= 0.0 || alpha > 1.0 then invalid_arg "Measure: alpha must be in (0, 1]";
  int_of_float (Float.floor (alpha *. float_of_int (Graph.n g)))

(* ---- deterministic minimisation ----

   The exact measures shard their enumeration over domains (one shard per
   smallest element), so "first set attaining the minimum" is no longer a
   well-defined witness. Instead the canonical witness is the
   lexicographically smallest minimiser (elements compared as sorted
   lists): the shard loop applies the tiebreak within a shard and [better]
   applies it across shards, making the reported witness a pure function of
   the graph — independent of job count, chunking and scheduling. *)

let lex_less a b = compare (Bitset.elements a) (Bitset.elements b) < 0

(* Same order as [lex_less] on sorted element arrays (element-wise, with an
   exhausted prefix comparing smaller), without materialising lists. The
   [_len] variant reads only the first [la]/[lb] slots of reused buffers. *)
let lex_less_arr_len a la b lb =
  let rec go i =
    if i >= la then la < lb
    else if i >= lb then false
    else if a.(i) < b.(i) then true
    else if a.(i) > b.(i) then false
    else go (i + 1)
  in
  go 0

let better a b =
  if b.value < a.value then b
  else if a.value < b.value then a
  else if lex_less b.witness a.witness then b
  else a

let better_opt a b =
  match (a, b) with None, x | x, None -> x | Some a, Some b -> Some (better a b)

(* Fold one candidate into a shard-local best. [copy] when [w] is a reused
   enumeration buffer rather than an owned set. Sampled paths only — the
   exact paths inline the same tiebreak over index arrays. *)
let consider best v w ~copy =
  let improved =
    match !best with None -> true | Some b -> v < b.value || (v = b.value && lex_less w b.witness)
  in
  if improved then begin
    Metrics.incr m_improvements;
    best := Some { value = v; witness = (if copy then Bitset.copy w else w) }
  end

(* ---- work guards ---- *)

let check_work name actual limit =
  if actual > limit then begin
    Metrics.incr m_work_rejected;
    raise
      (Too_large
         (Printf.sprintf "%s: enumeration of %d sets exceeds work limit %d" name actual limit))
  end

(* [Combi.subsets_count_le] raises a bare [Overflow] when the count does not
   fit an int; translate it here so callers only ever see the documented
   [Too_large] (an overflowing count certainly exceeds any work limit). *)
let count_sets_le name g kmax =
  try Combi.subsets_count_le (Graph.n g) kmax
  with Combi.Overflow ->
    Metrics.incr m_work_rejected;
    raise
      (Too_large
         (Printf.sprintf "%s: more than max_int candidate sets (n = %d, kmax = %d)" name
            (Graph.n g) kmax))

(* Σ_k C(n,k)·2^k Gray-code steps for the wireless measures. The 2^k factor
   is computed as [ldexp 1.0 k]: the previous [float_of_int (1 lsl k)]
   overflowed the OCaml int at k >= 62 and silently defeated the guard.
   A binomial overflow means the work certainly exceeds any limit. *)
let check_wireless_work name g kmax work_limit =
  let n = Graph.n g in
  let work =
    try
      let acc = ref 0.0 in
      for k = 1 to kmax do
        acc := !acc +. (float_of_int (Combi.binomial n k) *. ldexp 1.0 k)
      done;
      !acc
    with Combi.Overflow -> infinity
  in
  if work > float_of_int work_limit then begin
    Metrics.incr m_work_rejected;
    raise
      (Too_large
         (Printf.sprintf "%s: 3^n-style enumeration (n = %d, kmax = %d) exceeds work limit %d"
            name n kmax work_limit))
  end

(* Single-set Gray enumeration guard — the shared {!Wx_util.Guard}
   contract, plus this layer's rejection counter. *)
let check_gray_work name k work_limit =
  try Guard.check_gray_work name k work_limit
  with Too_large _ as e ->
    Metrics.incr m_work_rejected;
    raise e

(* ---- incremental scoring engine ----

   [Combi.iter_subshard_le_prune] reports how much of the previous subset
   survives each step ([kept] leading slots); an [Nbhd.Inc] arena absorbs
   the difference with O(deg) [add]/[remove] calls and answers
   |Γ⁻(S)|, |Γ¹(S)|, |S| in O(1). One arena per shard, reused across the
   whole enumeration — the per-set cost is the touched edges, with no
   allocation (the old path built a fresh neighborhood bitset per set).

   A scorer couples the arena to a measure. [score] reads the arena (and
   for the wireless measure runs the inner Gray-code maximisation) for the
   set in the first [len] slots of the (possibly longer, reused) buffer,
   and returns the measure's numerator: every measure here is that count
   divided by [len], and returning the int keeps the hot loop from boxing
   a float per set; [bound_num] is the branch-and-bound numerator floor — a lower bound on
   the measure's numerator over {e every} strict extension of the set just
   scored by at most [budget] vertices, all larger than [last] (so it must
   be called while the arena still holds that set); [flush] publishes any
   batched counters once the shard finishes, so the hot loop performs no
   atomic operations. *)

type inc_scorer = {
  score : int array -> len:int -> int;
  bound_num : last:int -> budget:int -> int;
  flush : unit -> unit;
}

let expansion_scorer inc =
  {
    score = (fun _ ~len:_ -> Nbhd.Inc.boundary inc);
    bound_num = (fun ~last:_ ~budget -> Nbhd.Inc.boundary_floor inc ~budget);
    flush = (fun () -> ());
  }

let unique_scorer g inc =
  (* [smax.(v)] = max degree over vertices >= v: the DFS only ever appends
     elements larger than the current maximum, so it bounds the degree of
     every vertex an extension could add. *)
  let n = Graph.n g in
  let smax = Array.make (n + 1) 0 in
  for v = n - 1 downto 0 do
    smax.(v) <- max (Graph.degree g v) smax.(v + 1)
  done;
  {
    score = (fun _ ~len:_ -> Nbhd.Inc.unique inc);
    bound_num =
      (fun ~last ~budget -> Nbhd.Inc.unique_floor inc ~budget ~max_add_degree:smax.(last + 1));
    flush = (fun () -> ());
  }

(* Counts of the members of S sit at this sentinel while [Nbhd.gray_walk]
   runs over S's subsets: they then never count as covered or unique,
   which is Γ¹_S's exclusion of S without a membership test. *)
let excluded = 3

(* Walk the subsets S' of S = [elts.(0 .. len-1)], calling [step i _ u]
   with u = |Γ¹_S(S')|. [cnt] is all-zero scratch of size n, and is
   all-zero again on return. *)
let walk_excluding g cnt elts len step =
  for j = 0 to len - 1 do
    cnt.(elts.(j)) <- excluded
  done;
  Nbhd.gray_walk ~offsets:(Graph.offsets g) ~adjacency:(Graph.adjacency g) cnt elts len step;
  for j = 0 to len - 1 do
    cnt.(elts.(j)) <- 0
  done

let wireless_scorer g _ =
  let cnt = Array.make (Graph.n g) 0 in
  (* [best] is max_{S'⊆S} |Γ¹_S(S')| for the set last scored; [step] is
     built once per shard, so scoring a set allocates no closure. *)
  let best = ref 0 and flips = ref 0 in
  let step _ _ u = if u > !best then best := u in
  {
    score =
      (fun idxs ~len ->
        best := 0;
        walk_excluding g cnt idxs len step;
        flips := !flips + (1 lsl len) - 1;
        !best);
    bound_num =
      (fun ~last:_ ~budget ->
        (* For any T ⊇ S the same S' is still a candidate, and moving a
           vertex into T removes at most that vertex itself from
           Γ¹_T(S') — the per-N-vertex counts w.r.t. the fixed S' do not
           change. So w(T) >= best - budget. *)
        let b = !best - budget in
        if b > 0 then b else 0);
    flush =
      (fun () ->
        if !flips > 0 then begin
          Metrics.add m_gray_flips !flips;
          Work.add Work.gray_steps !flips
        end);
  }

(* ---- exact minima, sharded by smallest element ----

   Shard a = all subsets whose smallest element is a; shards are
   independent and jointly exhaustive, and the weighted pool splits
   oversized ones into contiguous second-element sub-ranges so idle
   workers steal from the heavy low-[a] shards. Each work unit drives one
   arena through the pre-order DFS enumeration and keeps its best as a
   plain (value, sorted index buffer) pair; the witness bitset is
   materialised once, when the unit returns.

   Branch-and-bound: after scoring a set S the scorer's [bound_num] gives
   a floor on the measure's numerator over every strict extension of S;
   dividing by the largest reachable set size gives a bound [lb] on the
   measure over the whole subtree. Correctly rounded float division is
   monotone in its real argument, so the float comparisons below inherit
   the soundness of the integer inequality.

   The cut is tie-aware because the visit order IS the tiebreak order: a
   unit's DFS walks its sets in lexicographic pre-order (a set before its
   extensions, which all sort after it and after everything visited so
   far), and units in (shard, part) order cover consecutive lex intervals.
   The shared incumbent is the best (value, unit rank) pair published so
   far. The subtree of S is cut when
   - [lb > v] for the incumbent's value [v]: every set in it is worse;
   - [lb >= v] and the incumbent came from a lower-ranked unit: every set
     in it is worse or ties a lex-smaller set, so it loses the tiebreak;
   - [lb >=] the unit's own best so far, which was visited earlier in the
     same DFS and is therefore lex-smaller than the whole subtree.
   So the lex-smallest minimiser is never cut, and values and witnesses
   are bit-identical to the unpruned enumeration at any job count; only
   the visit COUNT is timing-dependent (DESIGN §11). Determinism of the
   result never rests on the incumbent: the min + lex tiebreak is
   order-independent, and the pool combines unit results in (shard, part)
   order. *)

(* One work unit's pass: the sub-shard of smallest element [a] whose
   second element lies in [blo, bhi), plus the singleton {a} iff [self],
   walked by the pre-order DFS with one arena absorbing each step's delta.
   [visit sc buf len num] sees each set (the first [len] slots of [buf])
   and its score's numerator [num]; returning [true] cuts the set's
   strict extensions. *)
let drive_unit g kmax make_scorer a ~blo ~bhi ~self visit =
  let n = Graph.n g in
  let inc = Nbhd.Inc.create g in
  let sc = make_scorer inc in
  let prev = Array.make (max 1 (min kmax n)) 0 in
  let prev_len = ref 0 in
  let scored = ref 0 in
  Combi.iter_subshard_le_prune n kmax a ~blo ~bhi ~self (fun buf ~len ~kept ->
      for j = !prev_len - 1 downto kept do
        Nbhd.Inc.remove inc prev.(j)
      done;
      for j = kept to len - 1 do
        let v = buf.(j) in
        Nbhd.Inc.add inc v;
        prev.(j) <- v
      done;
      prev_len := len;
      incr scored;
      visit sc buf len (sc.score buf ~len));
  sc.flush ();
  if !scored > 0 then begin
    Metrics.add m_sets_scored !scored;
    Work.add Work.sets_scored !scored
  end

(* Reduce [unit_body a ~part ~blo ~bhi ~self] over every work unit of the
   sets of size <= kmax, folded in (shard, part) order.

   Steal weights: |shard a| = Σ_{j<=kmax-1} C(n-a-1, j) subsets. The pool
   splits heavy shards into [parts] units; the split point between parts
   is by cumulative second-element weight, recomputed identically by
   every unit of the shard (same floats, same order), so the ranges are
   consistent and partition [a+1, n). *)
let reduce_units ?jobs g kmax ~init ~combine unit_body =
  let n = Graph.n g in
  let shard_weight a = Combi.count_subsets_upto_float (n - 1 - a) (kmax - 1) in
  let map a ~part ~parts =
    if parts = 1 then unit_body a ~part ~blo:(a + 1) ~bhi:n ~self:true
    else begin
      let wgt b = Combi.count_subsets_upto_float (n - 1 - b) (kmax - 2) in
      let total = ref 0.0 in
      for b = a + 1 to n - 1 do
        total := !total +. wgt b
      done;
      let lo p =
        if p <= 0 then a + 1
        else if p >= parts then n
        else begin
          let thresh = !total *. float_of_int p /. float_of_int parts in
          let acc = ref 0.0 in
          let b = ref (a + 1) in
          while !b < n && !acc +. wgt !b <= thresh do
            acc := !acc +. wgt !b;
            incr b
          done;
          !b
        end
      in
      unit_body a ~part ~blo:(lo part) ~bhi:(lo (part + 1)) ~self:(part = 0)
    end
  in
  Pool.parallel_reduce_weighted ?jobs ~n ~weight:shard_weight ~init ~map ~combine ()

(* The shared incumbent: a value some unit scored and that unit's rank.
   Immutable, so one [Atomic.get] reads a consistent pair. *)
type incumbent = { inc_v : float; inc_a : int; inc_part : int }

(* Unit (a, p) ranks before unit (a', p'): it covers lex-smaller sets. *)
let rank_lt a p a' p' = a < a' || (a = a' && p < p')

let min_over_shards name ?(prune = true) ?jobs g kmax make_scorer =
  let n = Graph.n g in
  (* Read by every unit's pruning test. The box only allocates on
     publication: on a lower value, or an equal one from a lower-ranked
     unit. *)
  let incumbent = Atomic.make { inc_v = infinity; inc_a = max_int; inc_part = max_int } in
  let rec publish num len a part =
    let v = float_of_int num /. float_of_int len in
    let cur = Atomic.get incumbent in
    if
      (v < cur.inc_v || (v = cur.inc_v && rank_lt a part cur.inc_a cur.inc_part))
      && not (Atomic.compare_and_set incumbent cur { inc_v = v; inc_a = a; inc_part = part })
    then publish num len a part
  in
  let scratch = max 1 (min kmax n) in
  (* [part] ranks the unit among its shard's units. *)
  let unit_body a ~part ~blo ~bhi ~self =
    let cut = ref 0 in
    let improvements = ref 0 in
    let have = ref false in
    (* 1-slot float array: improvements store without boxing, so the only
       timing-dependent allocation in a pruned run is incumbent boxes. *)
    let best_v = Array.make 1 infinity in
    let best_w = Array.make scratch 0 in
    let best_len = ref 0 in
    drive_unit g kmax make_scorer a ~blo ~bhi ~self (fun sc buf len num ->
        let v = float_of_int num /. float_of_int len in
        if
          (not !have)
          || v < best_v.(0)
          || (v = best_v.(0) && lex_less_arr_len buf len best_w !best_len)
        then begin
          have := true;
          incr improvements;
          best_v.(0) <- v;
          Array.blit buf 0 best_w 0 len;
          best_len := len
        end;
        (* Prune decision for the subtree of strict extensions. [budget] =
           how many vertices an extension can still add; the largest
           reachable size [len + budget] is the denominator floor's mate.
           The three-way cut is the one argued above. *)
        prune
        && begin
             publish num len a part;
             let budget = min (kmax - len) (n - 1 - buf.(len - 1)) in
             budget > 0
             && begin
                  let floor_num = sc.bound_num ~last:buf.(len - 1) ~budget in
                  let lb = float_of_int floor_num /. float_of_int (len + budget) in
                  let c = Atomic.get incumbent in
                  (lb > c.inc_v
                  || (lb >= c.inc_v && rank_lt c.inc_a c.inc_part a part)
                  || lb >= best_v.(0))
                  &&
                  (incr cut;
                   true)
                end
           end);
    if !cut > 0 then begin
      Metrics.add m_subtrees_pruned !cut;
      Work.add work_subtrees_pruned !cut
    end;
    if !improvements > 0 then Metrics.add m_improvements !improvements;
    if !have then
      Some { value = best_v.(0); witness = Bitset.of_array n (Array.sub best_w 0 !best_len) }
    else None
  in
  match reduce_units ?jobs g kmax ~init:None ~combine:better_opt unit_body with
  | Some w -> w
  | None -> invalid_arg (name ^ ": no feasible sets")

(* Generic exact minimum of a measure over non-empty subsets of size <= kmax,
   guarded by the candidate-set count. *)
let min_over_sets name ?(work_limit = 1 lsl 24) ?prune ?jobs g kmax make_scorer =
  let n = Graph.n g in
  if n = 0 || kmax = 0 then invalid_arg (name ^ ": no feasible sets");
  check_work name (count_sets_le name g kmax) work_limit;
  min_over_shards name ?prune ?jobs g kmax make_scorer

(* ---- sampled minima, sharded by sample block ----

   Each fixed-size block of samples draws from its own [Rng.split] child
   stream, split off in block order before any parallelism starts. The
   result is therefore a function of (seed, samples) alone: job count and
   scheduling cannot change which sets are drawn or which witness wins. *)

let sample_block = 32

let split_streams rng nblocks =
  let streams = Array.make nblocks rng in
  for b = 0 to nblocks - 1 do
    streams.(b) <- Rng.split rng
  done;
  streams

let min_over_sampled_sets ?jobs g kmax rng samples score =
  let n = Graph.n g in
  if n = 0 || kmax = 0 then invalid_arg "Measure: no feasible sets";
  if samples <= 0 then invalid_arg "Measure: samples must be positive";
  let nblocks = (samples + sample_block - 1) / sample_block in
  let streams = split_streams rng nblocks in
  let shard ~lo:b ~hi:_ =
    let r = streams.(b) in
    let best = ref None in
    let ndraws = min sample_block (samples - (b * sample_block)) in
    for _ = 1 to ndraws do
      Metrics.incr m_sampled_sets;
      let k = 1 + Rng.int r kmax in
      (* [kmax] is not necessarily <= n for direct callers; a draw above n
         cannot be materialised. Clamp it — after the draw, so the stream
         stays aligned — and account for the distortion, exactly like the
         wireless sampler's inner-cap clamp. *)
      let k =
        if k > n then begin
          Metrics.incr m_sampled_clamped;
          n
        end
        else k
      in
      let s = Bitset.random_of_universe r n k in
      consider best (score s) s ~copy:false
    done;
    Work.add Work.draws ndraws;
    !best
  in
  match
    Pool.parallel_reduce_ranges ?jobs ~range:1 ~n:nblocks ~init:None ~map:shard
      ~combine:better_opt ()
  with
  | Some w -> w
  | None -> assert false

let beta_exact ?alpha ?work_limit ?prune ?jobs g =
  Span.with_ ~name:"measure.beta_exact" (fun () ->
      min_over_sets "Measure.beta_exact" ?work_limit ?prune ?jobs g (max_set_size ?alpha g)
        expansion_scorer)

let beta_sampled ?alpha ?jobs rng ~samples g =
  Span.with_ ~name:"measure.beta_sampled" (fun () ->
      min_over_sampled_sets ?jobs g (max_set_size ?alpha g) rng samples
        (Nbhd.expansion_of_set g))

let beta_u_exact ?alpha ?work_limit ?prune ?jobs g =
  Span.with_ ~name:"measure.beta_u_exact" (fun () ->
      min_over_sets "Measure.beta_u_exact" ?work_limit ?prune ?jobs g (max_set_size ?alpha g)
        (unique_scorer g))

let beta_u_sampled ?alpha ?jobs rng ~samples g =
  Span.with_ ~name:"measure.beta_u_sampled" (fun () ->
      min_over_sampled_sets ?jobs g (max_set_size ?alpha g) rng samples
        (Nbhd.unique_expansion_of_set g))

let wireless_of_set_exact ?(work_limit = 1 lsl 24) g s =
  let elts = Bitset.to_array s in
  let k = Array.length elts in
  if k = 0 then invalid_arg "Measure.wireless_of_set: empty set";
  check_gray_work "Measure.wireless_of_set" k work_limit;
  let best = ref 0 and best_i = ref 0 in
  walk_excluding g (Array.make (Graph.n g) 0) elts k (fun i _ u ->
      if u > !best then begin
        best := u;
        best_i := i
      end);
  Metrics.add m_gray_flips ((1 lsl k) - 1);
  Work.add Work.gray_steps ((1 lsl k) - 1);
  { value = float_of_int !best /. float_of_int k; witness = Nbhd.gray_set (Graph.n g) elts !best_i }

let beta_w_exact ?alpha ?(work_limit = 1 lsl 26) ?prune ?jobs g =
  Span.with_ ~name:"measure.beta_w_exact" (fun () ->
      let kmax = max_set_size ?alpha g in
      let n = Graph.n g in
      if n = 0 || kmax = 0 then invalid_arg "Measure.beta_w_exact: no feasible sets";
      check_wireless_work "Measure.beta_w_exact" g kmax work_limit;
      min_over_shards "Measure.beta_w_exact" ?prune ?jobs g kmax (wireless_scorer g))

(* Largest sampled |S| for which the inner 2^|S| maximisation is viable;
   matches the default [inner_work_limit] of 2^22 Gray-code steps. *)
let wireless_sample_cap = 22

let beta_w_sampled ?alpha ?(inner_work_limit = 1 lsl 22) ?jobs rng ~samples g =
  Span.with_ ~name:"measure.beta_w_sampled" (fun () ->
      let kmax = max_set_size ?alpha g in
      let n = Graph.n g in
      if n = 0 || kmax = 0 then invalid_arg "Measure.beta_w_sampled: no feasible sets";
      if samples <= 0 then invalid_arg "Measure.beta_w_sampled: samples must be positive";
      let nblocks = (samples + sample_block - 1) / sample_block in
      let streams = split_streams rng nblocks in
      let shard ~lo:b ~hi:_ =
        let r = streams.(b) in
        let best = ref None in
        let ndraws = min sample_block (samples - (b * sample_block)) in
        for _ = 1 to ndraws do
          Metrics.incr m_sampled_sets;
          let k = 1 + Rng.int r kmax in
          (* Draws above the inner-enumeration cap used to be discarded
             with no replacement, silently wasting the sample budget
             whenever kmax > 22; clamp them to the cap instead and account
             for the distortion. *)
          let k =
            if k > wireless_sample_cap then begin
              Metrics.incr m_sampled_clamped;
              wireless_sample_cap
            end
            else k
          in
          let s = Bitset.random_of_universe r n k in
          match wireless_of_set_exact ~work_limit:inner_work_limit g s with
          | w -> consider best w.value s ~copy:false
          | exception Too_large _ -> Metrics.incr m_inner_pruned
        done;
        Work.add Work.draws ndraws;
        !best
      in
      match
        Pool.parallel_reduce_ranges ?jobs ~range:1 ~n:nblocks ~init:None ~map:shard
          ~combine:better_opt ()
      with
      | Some w -> w
      | None ->
          (* Every sample hit the inner work limit: keep the historical
             "no certificate" result rather than raising. *)
          { value = infinity; witness = Bitset.create n })

(* ---- per-size profiles ----

   Values only (no witness): one unpruned pass of the same units as the
   exact minima, each recording the least score per set size. Scores are
   never NaN, so the element-wise [Float.min] combine is associative and
   commutative and the profile is deterministic without any tiebreak. *)

let profile_sizes ?jobs g kmax make_scorer =
  if kmax < 1 then []
  else begin
    let unit_body a ~part:_ ~blo ~bhi ~self =
      let mins = Array.make (kmax + 1) infinity in
      drive_unit g kmax make_scorer a ~blo ~bhi ~self (fun _ _ len num ->
          let v = float_of_int num /. float_of_int len in
          if v < mins.(len) then mins.(len) <- v;
          false);
      mins
    in
    let mins =
      reduce_units ?jobs g kmax ~init:(Array.make (kmax + 1) infinity)
        ~combine:(Array.map2 Float.min) unit_body
    in
    List.init kmax (fun i -> (i + 1, mins.(i + 1)))
  end

let profile_beta ?alpha ?(work_limit = 1 lsl 24) ?jobs g =
  let kmax = max_set_size ?alpha g in
  let count = count_sets_le "Measure.profile_beta" g kmax in
  check_work "Measure.profile_beta" count work_limit;
  profile_sizes ?jobs g kmax expansion_scorer

let profile_beta_u ?alpha ?(work_limit = 1 lsl 24) ?jobs g =
  let kmax = max_set_size ?alpha g in
  let count = count_sets_le "Measure.profile_beta_u" g kmax in
  check_work "Measure.profile_beta_u" count work_limit;
  profile_sizes ?jobs g kmax (unique_scorer g)

let profile_beta_w ?alpha ?(work_limit = 1 lsl 26) ?jobs g =
  let kmax = max_set_size ?alpha g in
  check_wireless_work "Measure.profile_beta_w" g kmax work_limit;
  profile_sizes ?jobs g kmax (wireless_scorer g)
