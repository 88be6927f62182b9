(** Deterministic pseudo-random number generation.

    All stochastic behaviour in the simulator flows through this module so
    that every experiment is reproducible from a single seed.  The generator
    is SplitMix64: fast, high quality for simulation purposes, and trivially
    splittable into independent streams. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Use one split per simulated entity to decouple their randomness. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [\[lo, hi)]. *)

val exponential : t -> float -> float
(** [exponential t mean] samples Exp with the given mean. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Box-Muller normal sample. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** [lognormal t ~mu ~sigma] where [mu]/[sigma] are the parameters of the
    underlying normal (i.e. the median is [exp mu]). *)

val pareto : t -> scale:float -> shape:float -> float
(** Heavy-tailed sample, minimum [scale]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
