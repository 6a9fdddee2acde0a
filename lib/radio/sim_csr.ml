(* The radio engine: synchronous rounds over a Graph.t, walked directly
   as the flat CSR layout it is.

   Each round a protocol's fill marks the transmitters, then one of two
   kernels resolves who hears what. The choice is made once per round,
   from the transmit set alone:

   - Push (a scatter), when the transmitters' degree sum is at most the
     remaining 2m - sum. It walks each transmitter's row, saturates a
     per-vertex hear count at 2 (the model cannot distinguish "two" from
     "many"), and then resolves only the vertices it touched. Serial; its
     cost is the transmitters' degree sum, so a sparse round (Decay has
     ~2/k of the informed set transmit) never reads the silent vertices'
     rows. On bcast-decay-128k (random 8-regular, n = 2^17, seed 1,
     2-vCPU VM) the round time outside the fill fell 0.27 -> 0.09 s per
     broadcast, medians of three traced runs each.
   - Gather, otherwise. For every vertex count the transmitting neighbors
     straight off its adjacency row, early-exiting at 2. Each vertex's
     result is computed from reads only, so the scan shards over domains
     by contiguous vertex ranges with no write contention (each shard
     writes informed/since for its own vertices only), and a saturated
     network costs O(1) per vertex, where a push re-walks all 2m edges
     (60-70x slower on saturated G(n, 4n) rounds).

   Fills that mark transmitters one by one (every protocol but flood,
   and every data-driven fill through [transmit]) also append them to a
   transmitter list, which is what the rule sums and the push walks, and
   the next round clears exactly those bytes. Flood's fill is a wholesale
   [Bytes.blit] of the informed set that keeps no list; its rounds always
   gather and are cleared by one [Bytes.fill].

   Determinism: protocols draw from the single Rng stream sequentially in
   ascending vertex order before the round is resolved, and gather shard
   results are packed ints summed in range order by the pool
   (Pool.parallel_reduce_ranges cuts ranges by n alone). Which kernel
   runs depends on the transmit set alone, and both compute the same
   per-vertex rule. Outcomes are therefore bit-identical at any --jobs
   (regression-tested against an independent reference simulator in
   test/test_sim_csr.ml).

   Allocation: all per-vertex state lives in preallocated Bytes/int
   arrays, both kernels are top-level tail-recursive loops with int
   accumulators, and per-round results are packed into immediate ints —
   at jobs = 1 a steady-state step allocates zero minor words (the
   SIMSCALE bench asserts this under Memgc). *)

module Graph = Wx_graph.Graph
module Bitset = Wx_util.Bitset
module Rng = Wx_util.Rng
module Intvec = Wx_util.Intvec
module Metrics = Wx_obs.Metrics
module Sink = Wx_obs.Sink
module Work = Wx_obs.Work
module Pool = Wx_par.Pool

type t = {
  graph : Graph.t;
  n : int;
  jobs : int;
  range : int;
  informed : Bytes.t; (* '\001' iff informed *)
  transmit : Bytes.t; (* '\001' iff transmitting this round; scratch *)
  since : int array; (* round informed, -1 if not *)
  txs : int array; (* this round's transmitters, [0, ntx), each once *)
  mutable ntx : int;
  mutable listed : bool; (* false iff a fill set [transmit] wholesale (flood) *)
  hear : Bytes.t; (* push scratch: heard transmitters, saturating at 2; zero between rounds *)
  touched : int array;
      (* push scratch: vertices whose hear count left 0, plus one spare slot
         for the branch-free push's unconditional write once all n are in *)
  mutable informed_count : int;
  mutable round : int;
  mutable collisions : int;
}

type protocol = { name : string; fill : t -> Rng.t -> unit }

(* Footprint of the graph being simulated (last create wins). *)
let n_g = Metrics.gauge "csr.n"
let m_g = Metrics.gauge "csr.m"
let bytes_g = Metrics.gauge "csr.bytes"

let create ?jobs ?(range = 16384) graph ~source =
  let n = Graph.n graph in
  if source < 0 || source >= n then invalid_arg "Sim_csr.create: bad source";
  if range < 1 then invalid_arg "Sim_csr.create: range must be >= 1";
  let jobs =
    match jobs with
    | Some j when j >= 1 -> j
    | Some _ -> invalid_arg "Sim_csr.create: jobs must be >= 1"
    | None -> Pool.default_jobs ()
  in
  if Metrics.is_enabled () then begin
    Metrics.set n_g (float_of_int n);
    Metrics.set m_g (float_of_int (Graph.m graph));
    Metrics.set bytes_g (float_of_int (Graph.bytes graph))
  end;
  let informed = Bytes.make n '\000' in
  Bytes.set informed source '\001';
  let since = Array.make n (-1) in
  since.(source) <- 0;
  {
    graph;
    n;
    jobs;
    range;
    informed;
    transmit = Bytes.make n '\000';
    since;
    txs = Array.make n 0;
    ntx = 0;
    listed = true;
    hear = Bytes.make n '\000';
    touched = Array.make (n + 1) 0;
    informed_count = 1;
    round = 0;
    collisions = 0;
  }

let inform t v =
  if v < 0 || v >= t.n then invalid_arg "Sim_csr.inform: bad vertex";
  if Bytes.get t.informed v = '\000' then begin
    Bytes.set t.informed v '\001';
    t.since.(v) <- t.round;
    t.informed_count <- t.informed_count + 1
  end

let graph t = t.graph
let round t = t.round
let collisions t = t.collisions
let informed_count t = t.informed_count
let all_informed t = t.informed_count = t.n
let is_informed t v = Bytes.get t.informed v = '\001'
let informed_since t v = t.since.(v)

let informed_set t =
  let s = Bitset.create t.n in
  for v = 0 to t.n - 1 do
    if Bytes.unsafe_get t.informed v = '\001' then Bitset.add_inplace s v
  done;
  s

(* Mark [v] as a transmitter and append it to the list, once per round;
   returns the new list length. The distributed fills below call it with
   the list length in a local, unchecked. *)
let[@inline] mark transmit txs ntx v =
  if Bytes.unsafe_get transmit v = '\001' then ntx
  else begin
    Bytes.unsafe_set transmit v '\001';
    Array.unsafe_set txs ntx v;
    ntx + 1
  end

(* The one checked write into the transmit scratch: fills whose transmit
   set comes from data (a replayed schedule, a solver's choice) go through
   here. *)
let transmit t v =
  if v < 0 || v >= t.n || Bytes.get t.informed v = '\000' then
    invalid_arg "Sim_csr.transmit: transmitter without the message";
  t.ntx <- mark t.transmit t.txs t.ntx v

(* ---- the round kernels ----

   Top-level tail-recursive loops (not local closures) so a jobs=1 step
   performs no closure allocation. Results pack as
   [(newly lsl 31) lor collisions] — both counts are < 2^31 for any
   instance that fits in memory, and packed ints add componentwise, so
   plain [(+)] is the shard combine. *)

let mask31 = (1 lsl 31) - 1

(* Transmitting-neighbor count for one row slice, saturating at 2:
   transmit bytes are 0/1, so the char code IS the contribution. *)
let rec count_tx transmit nbrs i stop acc =
  if acc >= 2 || i >= stop then acc
  else
    count_tx transmit nbrs (i + 1) stop
      (acc + Char.code (Bytes.unsafe_get transmit (Array.unsafe_get nbrs i)))

(* Gather: receiver scan over vertices [w, hi): a transmitter hears nothing; a
   silent vertex hearing >= 2 is a collision event (informed or not); a
   silent uninformed vertex hearing exactly 1 joins the informed set.
   Writes touch only informed/since slots inside [w, hi), so concurrent
   shards never race. [round] is the 1-based index of the round being
   executed. *)
let rec scan offsets nbrs informed transmit since round hi w acc =
  if w >= hi then acc
  else if Bytes.unsafe_get transmit w = '\001' then
    scan offsets nbrs informed transmit since round hi (w + 1) acc
  else begin
    let c =
      count_tx transmit nbrs (Array.unsafe_get offsets w) (Array.unsafe_get offsets (w + 1)) 0
    in
    if c >= 2 then scan offsets nbrs informed transmit since round hi (w + 1) (acc + 1)
    else if c = 1 && Bytes.unsafe_get informed w = '\000' then begin
      Bytes.unsafe_set informed w '\001';
      Array.unsafe_set since w round;
      scan offsets nbrs informed transmit since round hi (w + 1) (acc + (1 lsl 31))
    end
    else scan offsets nbrs informed transmit since round hi (w + 1) acc
  end

(* Push, first half: walk row [i, stop) of one transmitter, raising each
   neighbor's hear count towards 2 and appending the vertices it lifts off
   0 to [touched]; returns the new touched length. Branch-free: with h the
   old count, h + 1 - h/2 is the new one and 1 - (h + 1)/2 is 1 iff h = 0
   (a branch on h, which is random per neighbor, mispredicts often enough
   to double the kernel's cost). [w] is written at [nt] whether or not it
   is kept, so [touched] needs n + 1 slots. *)
let rec push_row hear touched nbrs i stop nt =
  if i >= stop then nt
  else begin
    let w = Array.unsafe_get nbrs i in
    let h = Char.code (Bytes.unsafe_get hear w) in
    Bytes.unsafe_set hear w (Char.unsafe_chr (h + 1 - (h lsr 1)));
    Array.unsafe_set touched nt w;
    push_row hear touched nbrs (i + 1) stop (nt + 1 - ((h + 1) lsr 1))
  end

let rec push_rows offsets nbrs hear touched txs ntx j nt =
  if j >= ntx then nt
  else begin
    let u = Array.unsafe_get txs j in
    push_rows offsets nbrs hear touched txs ntx (j + 1)
      (push_row hear touched nbrs (Array.unsafe_get offsets u) (Array.unsafe_get offsets (u + 1)) nt)
  end

(* Push, second half: the gather's per-vertex rule over the touched
   vertices only, zeroing their hear counts for the next push. An
   untouched vertex heard nobody, which the gather's rule ignores too.
   With bytes as 0/1 flags and h in {1, 2}: a silent vertex collides iff
   h = 2 and joins iff h = 1 and it is uninformed; only the join, which
   writes [since], is a branch. *)
let rec resolve hear touched informed transmit since round nt j acc =
  if j >= nt then acc
  else begin
    let w = Array.unsafe_get touched j in
    let h = Char.code (Bytes.unsafe_get hear w) in
    Bytes.unsafe_set hear w '\000';
    let silent = 1 - Char.code (Bytes.unsafe_get transmit w) in
    let newly = silent land h land (1 - Char.code (Bytes.unsafe_get informed w)) in
    if newly = 1 then begin
      Bytes.unsafe_set informed w '\001';
      Array.unsafe_set since w round
    end;
    resolve hear touched informed transmit since round nt (j + 1)
      (acc + (silent land (h lsr 1)) + (newly lsl 31))
  end

(* Degree sum of the listed transmitters [j, ntx), cut short once it
   passes [cap]. *)
let rec degree_sum offsets txs ntx cap j acc =
  if j >= ntx || acc > cap then acc
  else begin
    let u = Array.unsafe_get txs j in
    degree_sum offsets txs ntx cap (j + 1)
      (acc + Array.unsafe_get offsets (u + 1) - Array.unsafe_get offsets u)
  end

let m_push_rounds = Metrics.counter "radio.push_rounds"

(* Undo the previous fill: byte by byte down its list, or in one pass
   after a wholesale fill. *)
let clear_transmit t =
  if t.listed then
    for j = 0 to t.ntx - 1 do
      Bytes.unsafe_set t.transmit (Array.unsafe_get t.txs j) '\000'
    done
  else Bytes.fill t.transmit 0 t.n '\000';
  t.ntx <- 0;
  t.listed <- true

let step t protocol rng =
  clear_transmit t;
  protocol.fill t rng;
  t.round <- t.round + 1;
  let offsets = Graph.offsets t.graph and nbrs = Graph.adjacency t.graph in
  let m = Graph.m t.graph in
  let packed =
    (* Push iff sum <= 2m - sum, i.e. sum <= m. *)
    if t.listed && degree_sum offsets t.txs t.ntx m 0 0 <= m then begin
      Metrics.incr m_push_rounds;
      let nt = push_rows offsets nbrs t.hear t.touched t.txs t.ntx 0 0 in
      resolve t.hear t.touched t.informed t.transmit t.since t.round nt 0 0
    end
    else if t.jobs <= 1 || t.n <= t.range then
      scan offsets nbrs t.informed t.transmit t.since t.round t.n 0 0
    else
      Pool.parallel_reduce_ranges ~jobs:t.jobs ~range:t.range ~n:t.n ~init:0
        ~map:(fun ~lo ~hi -> scan offsets nbrs t.informed t.transmit t.since t.round hi lo 0)
        ~combine:( + ) ()
  in
  let newly = packed lsr 31 in
  t.informed_count <- t.informed_count + newly;
  t.collisions <- t.collisions + (packed land mask31);
  Work.add Work.vertex_scans t.n;
  Work.incr Work.rounds_simulated;
  newly

(* ---- distributed protocols ----

   Each fill draws from the rng for informed vertices in ascending vertex
   order, and decides from local knowledge only: whether the vertex holds
   the message, when it got it, the round number and n. All but flood
   mark through [mark], keeping the transmitter list. *)

let m_coin_flips = Metrics.counter "radio.decay.coin_flips"
let m_transmit_decisions = Metrics.counter "radio.decay.transmit_decisions"

let phase_length n = Wx_util.Floatx.log2i_ceil (max 2 n) + 1

let flood =
  {
    name = "flood";
    fill =
      (fun t _rng ->
        Bytes.blit t.informed 0 t.transmit 0 t.n;
        t.listed <- false);
  }

(* Decay's slot [x mod k] without a division: with M = floor(2^31 / k) + 1,
   [x - k * ((x * M) lsr 31)] is exact while [x * k < 2^31]. Write
   M = (2^31 + e) / k with 1 <= e <= k: then x * M / 2^31 = x / k + x * e
   / (k * 2^31), and the excess stays under 1/k while x * e < 2^31, too
   little to carry x / k (whose fraction is at most (k - 1) / k) over the
   next integer. [x * M] stays below 2^62 on that range. *)
let slot_magic k = ((1 lsl 31) / k) + 1
let slot_limit k = ((1 lsl 31) - 1) / k
let[@inline] fast_slot k magic x = x - (k * ((x * magic) lsr 31))
let phase_slot k x = if x <= slot_limit k then fast_slot k (slot_magic k) x else x mod k

let decay_fill k t rng =
  let round = t.round in
  let informed = t.informed and transmit = t.transmit and since = t.since and txs = t.txs in
  (* Every vertex's x = round - since lies in [0, round], so one test
     covers the whole fill. *)
  let fast = round <= slot_limit k and magic = slot_magic k in
  let ntx0 = t.ntx in
  let ntx = ref ntx0 in
  for v = 0 to t.n - 1 do
    if Bytes.unsafe_get informed v = '\001' then begin
      let x = round - Array.unsafe_get since v in
      let slot = if fast then fast_slot k magic x else x mod k in
      if Rng.coin_pow2 rng slot then ntx := mark transmit txs !ntx v
    end
  done;
  t.ntx <- !ntx;
  (* One coin per informed vertex. *)
  Metrics.add m_coin_flips t.informed_count;
  Metrics.add m_transmit_decisions (!ntx - ntx0)

(* Each [fill] applies [decay_fill] in full: a partial application would
   allocate a curried closure on every call. *)
let decay = { name = "decay"; fill = (fun t rng -> decay_fill (phase_length t.n) t rng) }
let decay_with_phase_length k =
  (* Slots run over [0, k-1] and transmit with probability 2^-slot, which
     [Rng.coin_pow2] takes exactly for slot <= 61. *)
  if k < 1 || k > 62 then invalid_arg "Sim_csr.decay_with_phase_length: k must be in [1, 62]";
  { name = Printf.sprintf "decay-k%d" k; fill = (fun t rng -> decay_fill k t rng) }

let decay_globally_phased =
  {
    name = "decay-global";
    fill =
      (fun t rng ->
        let k = phase_length t.n in
        let slot = t.round mod k in
        let informed = t.informed and transmit = t.transmit and txs = t.txs in
        let ntx0 = t.ntx in
        let ntx = ref ntx0 in
        for v = 0 to t.n - 1 do
          if Bytes.unsafe_get informed v = '\001' then
            if Rng.coin_pow2 rng slot then ntx := mark transmit txs !ntx v
        done;
        t.ntx <- !ntx;
        Metrics.add m_coin_flips t.informed_count;
        Metrics.add m_transmit_decisions (!ntx - ntx0));
  }

let uniform p =
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Sim_csr.uniform: p out of range";
  {
    name = Printf.sprintf "uniform-%.2f" p;
    fill =
      (fun t rng ->
        let informed = t.informed and transmit = t.transmit and txs = t.txs in
        let ntx = ref t.ntx in
        for v = 0 to t.n - 1 do
          if Bytes.unsafe_get informed v = '\001' then
            if Rng.bernoulli rng p then ntx := mark transmit txs !ntx v
        done;
        t.ntx <- !ntx);
  }

(* ---- drivers ---- *)

let m_runs = Metrics.counter "radio.runs"
let m_rounds = Metrics.counter "radio.rounds"
let m_transmissions = Metrics.counter "radio.transmissions"
let m_collisions = Metrics.counter "radio.collisions"
let m_newly_informed = Metrics.counter "radio.newly_informed"
let m_collision_rounds = Metrics.counter "radio.collision_rounds"
let m_stalled_rounds = Metrics.counter "radio.stalled_rounds"

let rec count_ones b n i acc =
  if i >= n then acc else count_ones b n (i + 1) (acc + Char.code (Bytes.unsafe_get b i))

(* The shared loop: run [protocol] until [stop] or the round limit. *)
let run_until ?max_rounds ?jobs ?range ?on_round g ~source protocol rng ~stop =
  let t = create ?jobs ?range g ~source in
  let limit = match max_rounds with Some m -> m | None -> Sim.round_limit t.n in
  let history = Intvec.create () in
  Metrics.incr m_runs;
  (* Per-round bookkeeping costs a transmitter count; pay for it only when
     someone is watching (metrics, sink or an explicit callback). *)
  let observing () = Metrics.is_enabled () || Sink.active () || on_round <> None in
  let finished = ref (stop t) in
  while (not !finished) && t.round < limit do
    let coll_before = t.collisions in
    let newly = step t protocol rng in
    Intvec.push history t.informed_count;
    if observing () then begin
      (* The transmit scratch still holds this round's transmitters (the
         next step clears it), so the cardinal is free to recover here. *)
      let info =
        {
          Sim.index = t.round;
          transmitters = (if t.listed then t.ntx else count_ones t.transmit t.n 0 0);
          newly_informed = newly;
          informed_total = t.informed_count;
          collisions_this_round = t.collisions - coll_before;
        }
      in
      if Metrics.is_enabled () then begin
        Metrics.incr m_rounds;
        Metrics.add m_transmissions info.Sim.transmitters;
        Metrics.add m_collisions info.Sim.collisions_this_round;
        Metrics.add m_newly_informed info.Sim.newly_informed;
        if info.Sim.collisions_this_round > 0 then Metrics.incr m_collision_rounds;
        if info.Sim.transmitters > 0 && info.Sim.newly_informed = 0 then
          Metrics.incr m_stalled_rounds
      end;
      if Sink.active () then
        Sink.event "radio.round"
          [
            ("round", Wx_obs.Json.Int info.Sim.index);
            ("tx", Wx_obs.Json.Int info.Sim.transmitters);
            ("newly", Wx_obs.Json.Int info.Sim.newly_informed);
            ("informed", Wx_obs.Json.Int info.Sim.informed_total);
            ("collisions", Wx_obs.Json.Int info.Sim.collisions_this_round);
          ];
      match on_round with Some f -> f info | None -> ()
    end;
    finished := stop t
  done;
  ( t,
    {
      Sim.rounds = t.round;
      completed = all_informed t;
      informed_final = t.informed_count;
      collisions = t.collisions;
      frontier_history = Intvec.to_array history;
    } )

let run ?max_rounds ?jobs ?range ?on_round g ~source protocol rng =
  snd (run_until ?max_rounds ?jobs ?range ?on_round g ~source protocol rng ~stop:all_informed)

let rounds_to_inform ?max_rounds g ~source ~target protocol rng =
  let t, o = run_until ?max_rounds g ~source protocol rng ~stop:(fun t -> is_informed t target) in
  if is_informed t target then Some o.Sim.rounds else None

let rounds_to_fraction ?max_rounds g ~source ~subset ~fraction protocol rng =
  let total = Bitset.cardinal subset in
  if total = 0 then invalid_arg "Sim_csr.rounds_to_fraction: empty subset";
  let target = int_of_float (Float.ceil (fraction *. float_of_int total)) in
  let enough t = Bitset.fold (fun v c -> if is_informed t v then c + 1 else c) subset 0 >= target in
  let t, o = run_until ?max_rounds g ~source protocol rng ~stop:enough in
  if enough t then Some o.Sim.rounds else None

let monte_carlo ?max_rounds g ~source protocol ~seeds =
  let one seed = run ?max_rounds g ~source protocol (Rng.create seed) in
  (one, List.map one seeds)
