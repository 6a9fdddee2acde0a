(** The pick of Naive, Partition and Greedy: a min-heap over the indices
    [0 .. n-1] of a score that the caller keeps and changes in place, with
    lazy deletion.

    [key i] must be injective, a score times [n] plus [i], so the least
    key is the least score with the lowest index on ties: exactly what a
    full rescan for the minimum picks. Each index has one entry that
    counts, its newest, and that entry's key is at or below the current
    [key i]: a fall in [key i] must be reported with {!lowered}, while a
    rise is caught when the entry surfaces in {!top} and the index is
    queued again at its current key. Each {!lowered} call and each rise
    adds at most one entry, so a run costs O((n + c)·log(n + c)) for c key
    changes, where a rescan costs O(n) per pick. *)

type t

val create : int -> key:(int -> int) -> t
(** Every index of [0 .. n-1], queued at its current key. *)

val lowered : t -> int -> unit
(** [lowered h i]: [key i] fell, or [i] came back into play; queue [i] at
    its current key. *)

val top : t -> in_play:(int -> bool) -> int
(** The index in play of least current key, or [-1] when none is. Entries
    out of play or superseded are dropped on the way; the result stays
    queued. *)
