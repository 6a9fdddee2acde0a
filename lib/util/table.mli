(** Fixed-width text table rendering; column widths count UTF-8 code
    points, so cells may hold multi-byte glyphs (sparklines, middle dots).

    Every experiment in the bench harness prints through this module, so all
    predicted-vs-measured tables share one layout. *)

type align = Left | Right

type t

val create : ?aligns:align list -> string list -> t
(** [create headers] starts a table. [aligns] defaults to [Left] for the
    first column and [Right] for the rest (label + numeric columns). *)

val add_row : t -> string list -> unit
(** Raises [Invalid_argument] if the row width differs from the header. *)

val add_rule : t -> unit
(** Insert a horizontal separator between row groups. *)

val render : t -> string
(** The full table, with a top rule, a header rule and a bottom rule. *)

val print : t -> unit
(** [render] followed by [print_string] and a flush. *)

(** Cell formatting helpers shared by experiment code. *)

val fi : int -> string
val ff : ?dec:int -> float -> string
(** Fixed decimals (default 3); renders nan as ["-"]. *)

val fb : bool -> string
(** ["yes"] / ["NO"] — failures shout. *)

val fr : ?dec:int -> float -> float -> string
(** [fr a b] renders the ratio [a/b], or ["-"] if [b = 0]. *)
