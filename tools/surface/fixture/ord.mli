type t = int

val compare : t -> t -> int
