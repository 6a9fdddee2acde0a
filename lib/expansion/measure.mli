(** Graph-level expansion measures β(G), βu(G), βw(G).

    Each measure comes in two flavors:
    - [*_exact]: true minimum over all non-empty sets [S] with
      [|S| ≤ α·n], by subset enumeration. Exponential — guarded by an
      explicit work limit.
    - [*_sampled]: minimum over a random sample of sets, which is a sound
      {e upper bound certificate} on the measure (the measure is a min, so
      any witnessed set bounds it from above). Returns the witness.

    The wireless measure additionally needs, per set S, a maximum over
    subsets S′ ⊆ S; [wireless_of_set_exact] enumerates S′ in Gray-code
    order with incremental unique-count maintenance.

    {2 Parallelism and determinism}

    Every enumeration and sampling loop is sharded over a {!Wx_par.Pool}
    of OCaml 5 domains ([?jobs], default {!Wx_par.Pool.default_jobs} —
    settable via [--jobs] or [WX_JOBS]). Results are deterministic at any
    job count:
    - exact measures partition the subset space by smallest element
      (oversized shards are further split by second element and stolen by
      idle workers) and report the {e lexicographically smallest}
      minimising witness, so values and witnesses are identical at
      [jobs = 1] and [jobs = 64];
    - sampled measures pre-split one [Rng.split] child stream per
      fixed-size sample block, so for a fixed seed the drawn sets — and
      hence the certificate — do not depend on the job count.

    {2 Branch-and-bound pruning}

    The exact enumerations walk the subset space as a pre-order DFS,
    which visits sets in lexicographic order — the witness tiebreak
    order — and split it into work units ranked by (shard, part), which
    cover consecutive lex ranges. After scoring a set, a monotone lower
    bound [lb] over all its extensions decides whether to cut them. The
    cut fires when [lb] is above the incumbent (the best value any unit
    has published, shared across worker domains, so one shard's find
    prunes the others); when [lb] equals or exceeds the incumbent and
    that came from a lower-ranked unit; or when [lb] equals or exceeds
    the unit's own best so far, which was visited earlier in the same
    DFS. A cut subtree can only hold worse sets or ties that sort after
    a set already found, and so lose the tiebreak. Pruning therefore
    changes the number of sets visited (timing-dependent at [jobs > 1],
    observable in the [expansion.subtrees_pruned] counter) but never the
    value or the lex-smallest witness: both stay bit-identical to the
    unpruned enumeration, which [~prune:false] selects (the reference
    path, and the bench's comparison baseline).
    DESIGN.md §11 derives the per-measure bounds. *)

module Bitset = Wx_util.Bitset
module Graph = Wx_graph.Graph

type witnessed = { value : float; witness : Bitset.t }
(** A measure value together with the set attaining it. *)

exception Too_large of string
(** Raised when an exact enumeration would exceed its work limit (including
    when the candidate-set count itself overflows the native int). This is
    a rebinding of {!Wx_util.Guard.Too_large} — the same constructor every
    guarded enumeration kernel raises (e.g. [Nbhd.gray_walk]), so one
    handler catches refused work from any layer. *)

val max_set_size : ?alpha:float -> Graph.t -> int
(** [⌊α·n⌋], default [α = 1/2]. *)

(** {1 Ordinary expansion} *)

val beta_exact :
  ?alpha:float -> ?work_limit:int -> ?prune:bool -> ?jobs:int -> Graph.t -> witnessed
(** Minimum of [|Γ⁻(S)|/|S|] over non-empty [S], [|S| ≤ αn]. The work limit
    (default [2^24]) bounds the number of sets enumerated. [?prune]
    (default [true]) enables branch-and-bound; the result is identical
    either way (see the module preamble). *)

val beta_sampled :
  ?alpha:float -> ?jobs:int -> Wx_util.Rng.t -> samples:int -> Graph.t -> witnessed

val min_over_sampled_sets :
  ?jobs:int -> Graph.t -> int -> Wx_util.Rng.t -> int -> (Bitset.t -> float) -> witnessed
(** [min_over_sampled_sets g kmax rng samples score]: the generic sampled
    minimiser behind the [*_sampled] measures — [samples] uniform draws of
    a size in [1, kmax] then a uniform set of that size, scored by
    [score]. Sizes above [n] (possible when a caller passes its own
    [kmax]) are clamped to [n] {e after} the draw, so the stream stays
    aligned; clamps count in the [expansion.sampled_clamped] metric. *)

(** {1 Unique-neighbor expansion} *)

val beta_u_exact :
  ?alpha:float -> ?work_limit:int -> ?prune:bool -> ?jobs:int -> Graph.t -> witnessed

val beta_u_sampled :
  ?alpha:float -> ?jobs:int -> Wx_util.Rng.t -> samples:int -> Graph.t -> witnessed

(** {1 Wireless expansion} *)

val wireless_of_set_exact : ?work_limit:int -> Graph.t -> Bitset.t -> witnessed
(** [max_{S′ ⊆ S} |Γ¹_S(S′)| / |S|] with the maximizing [S′] as witness.
    Cost 2^|S|; the work limit (default 2^24) rejects larger sets. The
    Gray-code walk is inherently sequential and runs on the calling
    domain. *)

val beta_w_exact :
  ?alpha:float -> ?work_limit:int -> ?prune:bool -> ?jobs:int -> Graph.t -> witnessed
(** Exact wireless expansion: min over S of max over S′. Cost ~3^n; the
    work limit (default 2^26 elementary steps) keeps this to [n ≲ 16].
    The witness is the minimizing [S]. *)

val beta_w_sampled :
  ?alpha:float ->
  ?inner_work_limit:int ->
  ?jobs:int ->
  Wx_util.Rng.t ->
  samples:int ->
  Graph.t ->
  witnessed
(** Upper-bound certificate: min over sampled S of the {e exact} inner max.
    Sampled sizes are clamped to [min kmax 22] so the inner enumeration
    stays within the default inner work limit — clamped draws are counted
    in the [expansion.sampled_clamped] metric rather than discarded. *)

(** {1 Per-size profiles} *)

val profile_beta : ?alpha:float -> ?work_limit:int -> ?jobs:int -> Graph.t -> (int * float) list
(** [(k, min expansion over |S| = k)] for each feasible size k — the data
    behind "expansion as a function of set size" plots. *)

val profile_beta_u : ?alpha:float -> ?work_limit:int -> ?jobs:int -> Graph.t -> (int * float) list
(** Per-size unique-neighbor expansion profile. *)

val profile_beta_w : ?alpha:float -> ?work_limit:int -> ?jobs:int -> Graph.t -> (int * float) list
(** Per-size wireless expansion profile (exact inner maximization per set);
    work limit counts elementary Gray-code steps, default 2^26. *)
