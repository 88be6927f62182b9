(** Streaming and batch summary statistics used by every experiment. *)

(** Welford online mean/variance accumulator. *)
module Online : sig
  type t

  val create : unit -> t
  val observe : t -> float -> unit
  val mean : t -> float
  val variance : t -> float
  val stddev : t -> float
  val min : t -> float
  val max : t -> float
end

(** Reservoir of all samples, for exact quantiles on experiment-sized data. *)
module Samples : sig
  type t

  val create : unit -> t

  val observe : t -> float -> unit
  (** @raise Invalid_argument on NaN: a NaN sample would leave the sort
      order (and so every percentile) undefined, so it is rejected at
      observation time rather than poisoning later queries. *)

  val count : t -> int
  val percentile : t -> float -> float
  (** [percentile t p] for [p] in [\[0, 100\]], linear interpolation.
      @raise Invalid_argument if empty. *)

  val median : t -> float
  val min : t -> float
  val max : t -> float

end

val percentile_of_array : float array -> float -> float
(** [percentile_of_array sorted p]: [sorted] must be sorted ascending. *)

(** Fixed-bucket histogram with log-spaced bounds: O(1) allocation-free
    [observe] on the hot path (a bounded binary search over a fixed bounds
    array plus integer increments), approximate percentiles by linear
    interpolation within a bucket. The shape the observability layer's
    latency metrics use. *)
module Histogram : sig
  type t

  val log_bounds : lo:float -> hi:float -> per_decade:int -> float array
  (** Log-spaced upper bounds covering [\[lo, hi\]] with [per_decade]
      buckets per factor of ten. *)

  val create : ?bounds:float array -> unit -> t
  (** [bounds] must be strictly ascending; values above the last bound
      land in an implicit overflow bucket. *)

  val observe : t -> float -> unit
  (** @raise Invalid_argument on NaN. *)

  val count : t -> int
  val sum : t -> float
  val min : t -> float
  val max : t -> float

  val percentile : t -> float -> float
  (** Approximate: exact bucket, linear interpolation inside it, clamped
      to the observed min/max. @raise Invalid_argument if empty. *)

  val iter_buckets : t -> (le:float -> count:int -> unit) -> unit
  (** Cumulative counts in ascending bound order, ending with the
      overflow bucket at [le = infinity] — the Prometheus exposition
      shape. *)
end
