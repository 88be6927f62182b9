(** IPv4 transport addresses (ip, udp port) shared by the simulator, the
    protocol stack and the switch model. *)

type t = { ip : int; port : int }

val v : int -> int -> t
(** [v ip port]. *)

val ip_of_string : string -> int
(** Dotted quad to 32-bit int. @raise Invalid_argument on bad input. *)

val ip_to_string : int -> string
val of_string : string -> t
(** Parses ["a.b.c.d:port"]. *)

val to_string : t -> string
val compare : t -> t -> int
val equal : t -> t -> bool
