(** Exponentially-weighted moving average.

    Used by the switch agent's feedback filter (paper §5.3) to smooth each
    receiver's bandwidth estimates before selecting the best-performing
    downlink, and by GCC's adaptive threshold. *)

type t

val create : alpha:float -> t
(** [create ~alpha] with [0 < alpha <= 1]; higher alpha weighs recent
    samples more. The average is undefined until the first observation. *)

val observe : t -> float -> unit

val value : t -> float
(** Current average. @raise Invalid_argument if nothing was observed. *)

val value_opt : t -> float option
