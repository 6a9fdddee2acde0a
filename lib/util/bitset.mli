(** Packed bitsets over a fixed universe [0..n-1].

    Vertex sets are the central data structure of every expansion computation
    in this repository: exact expansion measures enumerate millions of sets,
    and each evaluation of a neighborhood touches a set per edge. The
    representation is an [int array] of [Sys.int_size]-bit words.

    Mutating operations are suffixed with [_inplace]; everything else is
    persistent (returns a fresh set). *)

type t

val create : int -> t
(** [create n] is the empty set over universe [0..n-1]. *)

val universe_size : t -> int
(** The [n] the set was created with. *)

val full : int -> t
(** [full n] is [{0, ..., n-1}]. *)

val copy : t -> t

val mem : t -> int -> bool
val add_inplace : t -> int -> unit
val remove_inplace : t -> int -> unit

val add : t -> int -> t
val remove : t -> int -> t

val cardinal : t -> int
(** Popcount over all words; O(n / word_size). *)

val popcount_word : int -> int
(** Number of set bits of a non-negative native int. *)

val is_empty : t -> bool

val equal : t -> t -> bool
val subset : t -> t -> bool
(** [subset a b] iff every element of [a] is in [b]. *)

val disjoint : t -> t -> bool

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val union_inplace : t -> t -> unit
val inter_inplace : t -> t -> unit
val diff_inplace : t -> t -> unit
val clear_inplace : t -> unit

val union_cardinal : t -> t -> int
(** [|a ∪ b|] in one fused word-parallel pass — no intermediate set is
    allocated. The neighborhood-union count of the naive reference
    scorers. *)

val inter_cardinal : t -> t -> int
(** [|a ∩ b|], fused like {!union_cardinal}. *)

val diff_cardinal : t -> t -> int
(** [|a \ b|], fused like {!union_cardinal} — e.g. [|Γ(S) \ S|] without
    materialising [Γ⁻(S)]. *)

val complement : t -> t
(** Complement within the universe. *)

val iter : (int -> unit) -> t -> unit
(** Iterate elements in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val exists : (int -> bool) -> t -> bool
val for_all : (int -> bool) -> t -> bool

val elements : t -> int list
(** Elements in increasing order. *)

val to_array : t -> int array

val of_list : int -> int list -> t
(** [of_list n xs] builds a set over universe [n]; raises [Invalid_argument]
    if any element is out of range. *)

val of_array : int -> int array -> t

val choose : t -> int
(** Smallest element; raises [Not_found] on the empty set. *)

val random_subset : Rng.t -> t -> float -> t
(** [random_subset rng s p] keeps each element of [s] independently with
    probability [p] — the sampling step of the decay method (Lemma 4.2). *)

val random_of_universe : Rng.t -> int -> int -> t
(** [random_of_universe rng n k] is a uniformly random k-subset of [0..n-1]. *)

val pp : Format.formatter -> t -> unit
(** Prints as [{0, 3, 7}]. *)

val to_string : t -> string

(** Deliberately naive sorted-list implementation of the same signature,
    kept only as the ablation baseline (DESIGN.md §3.1). *)
module Slow : sig
  type t

  val create : int -> t
  val mem : t -> int -> bool
  val add : t -> int -> t
  val cardinal : t -> int
  val union : t -> t -> t
  val inter : t -> t -> t
  val diff : t -> t -> t
  val of_list : int -> int list -> t
  val elements : t -> int list
end
