(** Fig. 14 — Scallop-based rate adaptation.

    A three-party call where all participants send and receive video.
    Participant 3's downlink deteriorates twice (at one and two thirds of
    the run), forcing the switch agent to step its decode target down from
    30 to 15 to 7.5 fps. The experiment reports the senders' frame rates
    (unchanged), participant 3's receive frame rate (stepping down), and
    participant 3's receive bitrate per sender — while asserting the
    stream stays decodable with no freezes. *)

type sample = {
  t_s : float;
  send_fps : float;  (** participant 1's send rate *)
  p3_recv_fps : float;  (** averaged over both streams *)
  p3_recv_kbps : float;
}

type result = {
  series : sample list;
  final_target : Av1.Dd.decode_target;
  freezes : int;
  initial_fps : float;
  mid_fps : float;  (** after the first constraint *)
  late_fps : float;  (** after the second constraint *)
  p3_qoe : Scallop_obs.Qoe.summary list;
      (** the QoE engine's view of the constrained receiver's video legs:
          temporal-layer residency, mouth-to-ear tails, freeze/loss ratios *)
}

val compute : ?quick:bool -> unit -> result
val claims : result Claim.t list
val print : result -> unit
