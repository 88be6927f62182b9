(** Binned time series used to report figure data (rates over time, fps
    curves, concurrency curves). Time is in integer nanoseconds to match
    the simulator clock. *)

type t

val create : bin_ns:int -> t
(** [create ~bin_ns] accumulates values into fixed-width bins. Storage
    is a dense array over the range of bins touched so far, so it starts
    empty and its size tracks (last bin - first bin), not the number of
    [add] calls. *)

val add : t -> int -> float -> unit
(** [add t time value] accumulates [value] into the bin containing [time].
    Times may arrive out of order. Amortized O(1). *)

val incr : t -> int -> unit
(** [incr t time] is [add t time 1.0] — convenient for counting events. *)

val bin_ns : t -> int

val bins : t -> (int * float) array
(** [(bin_start_time, sum)] for every bin from the first to the last
    non-empty bin, with empty bins reported as [0.]. Sorted by time. *)

val rates_per_second : t -> (float * float) array
(** [(bin_start_seconds, sum / bin_seconds)] — e.g. bytes become bytes/s. *)

val fold : t -> init:'a -> f:('a -> int -> float -> 'a) -> 'a
