(** A cursor over text, the textual counterpart of {!Wire.Reader}: the
    SDP and control-plane RPC parsers read through it.

    It reads spans — tokens, lines, fields — as index pairs into the
    text, and decimals and dotted quads in place, so a parse copies only
    the strings it keeps or matches against names. Every malformed
    value raises {!Wire.Parse_error}. How a format splits its text (on
    which separator, whether empty tokens count) is the caller's choice
    of separator and of which spans to skip. *)

type t

val of_string : string -> t
(** A cursor over the whole string. *)

val sub : t -> int -> int -> t
(** [sub t lo hi] is a fresh cursor over [[lo, hi)] of [t]'s text,
    indices as {!lo} and {!hi} report them. *)

val reset : t -> int -> int -> unit
(** [reset t lo hi] points [t] at [[lo, hi)] of its text, unread: one
    cursor reused for each line of a text allocates nothing per line. *)

val next : t -> char -> bool
(** [next t sep] reads the span from the cursor up to the next [sep] (or
    the end of the region) and moves past that [sep]; [false], reading
    nothing, once the region is used up. A region holding [k]
    separators holds [k + 1] spans, empty ones included: [""] holds one
    empty span. *)

val rest : t -> string
(** The unread rest of the region as the span read (as {!next} with a
    separator that never occurs); [""] once the region is used up. *)

val at_end : t -> bool
(** The region is used up: {!next} would return [false]. *)

val lo : t -> int
val hi : t -> int
(** The span last read: [[lo, hi)] of the text. *)

val is : t -> string -> bool
(** The span last read equals the literal. *)

val string : t -> string
(** The span last read, copied. *)

val int : t -> int
(** The span last read as a decimal: an optional ['-'], then digits,
    within the range of [int].
    @raise Wire.Parse_error otherwise. *)

val ip : t -> int
(** The span last read as a dotted-quad IPv4 address (four decimals of
    one to three digits, each at most 255).
    @raise Wire.Parse_error otherwise. *)

val add_int : Buffer.t -> int -> unit
(** [add_int b n] writes [n] as [string_of_int] prints it, digit by
    digit, with no intermediate string. *)
