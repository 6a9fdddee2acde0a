(** Binary-heap priority queue with integer priorities.

    Used as a lazy-deletion min-heap, keyed by score and index, by
    [Arboricity.peel] (minimum degree) and by the spokesmen library's
    vertex pick behind [Naive.run], [Partition.run] and [Greedy]. Stale
    entries stay in the heap and are skipped as they surface.
    [create_max] gives a max-heap. *)

type 'a t

val create_max : unit -> 'a t
val create_min : unit -> 'a t

val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> int -> 'a -> unit
(** [push q priority value]. *)

val pop : 'a t -> (int * 'a) option
(** Extract the best (max or min priority) entry. *)

val peek : 'a t -> (int * 'a) option
