(** Table 2 (Appendix C) — packet-capture summary.

    The paper summarizes a 12-hour campus capture: total Zoom packets,
    flows, bytes and RTP media streams. We regenerate the same summary by
    running a batch of Scallop meetings and capturing at the switch; the
    absolute scale is set by the simulated duration and meeting count,
    the per-stream/per-flow structure by the protocol stack itself. *)

type result = {
  duration_s : float;
  packets : int;
  packets_per_s : float;
  flows : int;  (** distinct 5-tuples seen at the switch *)
  megabytes : float;
  mbit_per_s : float;
  rtp_streams : int;  (** distinct media SSRCs *)
  senders : int;  (** participants, every one sending video and audio *)
}

val compute : ?quick:bool -> unit -> result
val claims : result Claim.t list
val print : result -> unit
