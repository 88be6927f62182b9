(** Fig. 2 — media streams at the SFU vs meeting size.

    From the synthetic campus dataset: per meeting-size bucket, the range
    and median of concurrently carried SFU streams, against the 2N^2
    upper bound (exceeded only via screen shares). The paper's anchors
    are in [claims]. *)

type row = { size : int; min : int; median : float; max : int; bound : int }

type result = {
  rows : row list;
  streams_at_10 : int;  (** max observed at size 10 *)
  streams_at_25 : int;
  two_party_fraction : float;
}

val of_dataset : Trace.Dataset.t -> result
(** The figure over a given dataset ([scallop_cli trace]'s). *)

val compute : ?quick:bool -> unit -> result
(** {!of_dataset} over the campus dataset at seed 7. *)

val claims : result Claim.t list
val print : result -> unit
