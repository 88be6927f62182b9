(** Table 1 — control/data-plane packet split.

    A three-party Scallop meeting (720p AV1 SVC + audio) runs for ten
    simulated minutes; every packet arriving at the switch is classified
    exactly as the paper's table: RTP (audio / video / AV1 dependency
    structure), RTCP (SR/SDES, RR, RR/REMB), STUN — and rolled up into
    control-plane vs data-plane totals. Counts are reported per
    participant, as in the paper. *)

type row = {
  label : string;
  packets : float;
  packet_pct : float;
  per_sec : float;
  kbytes : float;
  byte_pct : float;
}

type result = {
  rows : row list;
  data_plane_packet_fraction : float;
  data_plane_byte_fraction : float;
}

val compute : ?quick:bool -> unit -> result
(** [quick] runs 60 simulated seconds instead of 600. *)

val claims : result Claim.t list
val print : result -> unit
