(** Deterministic, splittable pseudo-random number generator.

    All randomized code in this repository threads an explicit [Rng.t]; there
    is no hidden global state, so every experiment in [EXPERIMENTS.md] is
    reproducible from its printed seed.

    The core generator is xoshiro256** (Blackman & Vigna); seeding and
    splitting use splitmix64, the recommended companion seeding generator.

    The state is a 32-byte buffer holding the four 64-bit words s0..s3 at
    byte offsets 0/8/16/24, read and written unboxed. [bits], [int],
    [int_in], [bool] and [coin_pow2] allocate nothing per draw; [float] and
    [int64] allocate only their boxed result, and [bernoulli] only its
    caller's boxed [p]. This is why Decay's per-vertex coin uses
    {!coin_pow2}: an integer argument is never boxed. The streams are pinned
    by golden vectors in the test suite. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator deterministically from [seed] by running
    splitmix64 to fill the four xoshiro words. Distinct seeds give
    (practically) independent streams. *)

val split : t -> t
(** [split t] returns a fresh generator seeded from the next outputs of [t].
    The child stream is independent of further draws from [t]; use it to hand
    private randomness to sub-computations (e.g. one per simulated node). *)

val copy : t -> t
(** [copy t] duplicates the current state; both copies then produce the same
    future stream. Used by tests that check determinism. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int
(** Next 62-bit non-negative integer (uniform on [0, 2^62)). *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound); [bound] must be positive.
    Uses rejection sampling, so the distribution is exactly uniform. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on the inclusive range [lo, hi]. *)

val float : t -> float
(** Uniform float in [0, 1), with 53 bits of precision. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0,1]). It
    draws once when [0 < p < 1] and not at all otherwise. *)

val coin_pow2 : t -> int -> bool
(** [coin_pow2 t k] is [bernoulli t (1.0 /. float_of_int (1 lsl k))] without
    the float: the same draws, the same result, for every [k] in its domain
    [0 <= k <= 61]. [k = 0] is [true] without drawing; otherwise it draws
    once and tests the top 53 bits v of the draw. For [k <= 53] it is [true]
    iff v < 2^(53-k), exactly probability 2^-k (v * 2^-53 < 2^-k iff
    v < 2^(53-k)). For [53 < k <= 61] it is [true] iff v = 0, probability
    2^-53, the resolution of the 53-bit draw [bernoulli] shares. Raises
    [Invalid_argument] for [k] outside [0, 61]. *)

val geometric : t -> float -> int
(** [geometric t p] is the number of failures before the first success in
    Bernoulli(p) trials (support {0, 1, ...}). [p] must be in (0, 1]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0..n-1]. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t n k] draws [k] distinct values from
    [0..n-1], in random order. Requires [0 <= k <= n]. Uses Floyd's
    algorithm, so it is O(k) in expectation for any [n]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val subset_bernoulli : t -> int -> float -> int list
(** [subset_bernoulli t n p] includes each of [0..n-1] independently with
    probability [p]; returns the chosen indices in increasing order. This is
    the sampling primitive of the decay argument (Lemma 4.2). *)
