(** Combinatorics helpers for exact expansion computation.

    Exact values of β, βu, βw are minima/maxima over vertex subsets; these
    iterators drive the enumeration. *)

val binomial : int -> int -> int
(** [binomial n k]; 0 when [k < 0] or [k > n]. Raises [Overflow] if the value
    exceeds [max_int] (never happens at the sizes we enumerate). *)

exception Overflow

val iter_subsets_of_size : int -> int -> (int array -> unit) -> unit
(** [iter_subsets_of_size n k f] calls [f] on each size-[k] subset of
    [0..n-1] in lexicographic order. The array is reused between calls —
    copy it if you keep it. *)

val iter_subsets_le : int -> int -> (int array -> unit) -> unit
(** All non-empty subsets of [0..n-1] of size at most [k], by increasing
    size. Same buffer-reuse caveat. *)

val iter_all_subsets : int -> (int -> unit) -> unit
(** [iter_all_subsets n f] calls [f mask] for every [mask] in
    [0 .. 2^n - 1]. Requires [n <= 30]. *)

(** {2 Sharded, prunable enumeration}

    The exact measures partition the subset space by smallest element:
    the subsets with minimum [a] form a shard that one domain can
    enumerate without coordination, and the shards for [a = 0..n-1]
    cover every non-empty subset exactly once. Within a shard the walk is
    a pre-order DFS over increasing sequences — every sorted set is
    visited immediately after its longest proper prefix, which is
    lexicographic order — so branch-and-bound can cut a whole subtree of
    extensions.

    Incremental contract: the callback receives a reused buffer whose
    first [len] slots hold the current sorted set, and [~kept], the
    number of leading slots unchanged since the {e previous} callback
    ([kept = 0] on the first). A consumer maintaining a running set
    removes its elements at positions [kept .. prev_len - 1] and then
    adds the buffer's elements at positions [kept .. len - 1]. *)

val iter_subshard_le_prune :
  int ->
  int ->
  int ->
  blo:int ->
  bhi:int ->
  self:bool ->
  (int array -> len:int -> kept:int -> bool) ->
  unit
(** [iter_subshard_le_prune n kmax a ~blo ~bhi ~self f] visits, in
    lexicographic pre-order, the subsets of [0..n-1] of size at most
    [kmax] whose smallest element is [a] and that are either the
    singleton [{a}] (iff [self]) or have their {e second} smallest element
    in [\[blo, bhi)]. With [~blo:(a + 1) ~bhi:n ~self:true] that is the
    whole shard; the sub-shards [(self, blo..bhi)] of a partition of
    [\[a + 1, n)] partition it, so idle workers can claim slices of one
    oversized shard. [f buf ~len ~kept] follows the incremental contract
    above; returning [true] skips every {e strict extension} of the
    current set (the supersets obtained by appending larger elements).
    A [true] return from the singleton visit skips the rest of this
    sub-shard, whose sets all extend [{a}]. Raises [Invalid_argument]
    when [kmax < 1] or [a] is out of range. *)

val count_subsets_upto_float : int -> int -> float
(** [count_subsets_upto_float m k] is [Σ_{j=0..min k m} C(m, j)] as a
    float — the number of ways to extend a prefix that has [m] addable
    elements and [k] free slots (including not extending it). The
    work-unit weight the splitter feeds {!Wx_par.Pool}. *)

val subsets_count_le : int -> int -> int
(** Number of non-empty subsets of size at most [k] — used to refuse
    enumerations that would not terminate in reasonable time. *)
