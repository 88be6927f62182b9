(** Fig. 19 — SFU forwarding latency.

    Two participants in a call, connected either through Scallop's data
    plane or through the software SFU. Every RTP media packet is
    timestamped at the sending client and at the receiving client; the
    difference, minus nothing (the network path is identical in both
    setups), is dominated by SFU residence time. [claims] holds the
    paper's median and p99 ratios. *)

type dist = { median_us : float; p90_us : float; p99_us : float; samples : int }

type result = {
  scallop : dist;
  software : dist;
  scallop_samples : Scallop_util.Stats.Samples.t;
  software_samples : Scallop_util.Stats.Samples.t;
  median_ratio : float;
  p99_ratio : float;
}

val compute : ?quick:bool -> unit -> result
val claims : result Claim.t list
val print : result -> unit
