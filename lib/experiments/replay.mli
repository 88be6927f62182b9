(** Campus-trace replay — the experiment behind the paper's headline
    claim (§1): replaying campus-scale Zoom traces, Scallop handles
    nearly all packets and bytes in the hardware data plane ([claims]).

    A window of the synthetic campus dataset is replayed {e live} against
    the Scallop stack: meetings are created and joined at (compressed)
    trace times, participants leave when their meeting ends, and every
    packet that reaches the switch is classified. Unlike Table 1's single
    three-party meeting, this exercises the split under churn: joins,
    leaves, many concurrent meetings of trace-realistic sizes. *)

type result = {
  meetings_replayed : int;
  peak_participants : int;
  joins : int;
  leaves : int;
  data_plane_packet_fraction : float;
  data_plane_byte_fraction : float;
  migrations : int;
  freezes : int;
}

val compute : ?quick:bool -> unit -> result
val claims : result Claim.t list
val print : result -> unit
