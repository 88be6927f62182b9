(** Receiver-side Google Congestion Control (paper §5.2; Carlucci et al.).

    The receiver estimates available bandwidth from packet arrival-time
    variation and reports it to the sender in periodic REMB messages. The
    pipeline is the classic GCC one:

    + packets are grouped by RTP timestamp (one group per video frame);
    + an arrival-time filter computes the inter-group one-way delay
      gradient;
    + a trendline estimator regresses the accumulated gradient and an
      adaptive-threshold detector classifies the path as underused /
      normal / overused;
    + an AIMD controller raises the estimate multiplicatively while the
      path is normal and cuts it to 0.85x the measured receive rate on
      overuse.

    Scallop keeps this logic at the *receiving clients* so the SFU only
    handles low-rate REMB feedback (the receiver-driven mode the paper
    selects over per-packet TWCC). *)

type t

type detector_state = Underuse | Normal | Overuse
type rate_state = Increase | Hold | Decrease

val create :
  ?initial_bps:int -> ?min_bps:int -> ?max_bps:int -> unit -> t
(** Defaults: initial 3 Mb/s, min 50 kb/s, max 20 Mb/s. *)

val on_packet : t -> time_ns:int -> rtp_ts:int -> size:int -> unit
(** Feed every received media packet; [rtp_ts] in 90 kHz ticks.
    [time_ns] must not decrease from one call to the next (the engine
    clock guarantees it): the receive-rate window is a FIFO that expires
    entries from its oldest end only. Each call is O(1) amortized. *)

val estimate_bps : t -> int
val detector_state : t -> detector_state
val rate_state : t -> rate_state

val receive_rate_bps : t -> time_ns:int -> float
(** Incoming rate measured over the last 500 ms. *)

val poll_remb : t -> time_ns:int -> int option
(** Returns the estimate when a REMB should be emitted now: every 440 ms
    (calibrated to the paper's Table 1 REMB cadence),
    or immediately after the estimate dropped by more than 3%. *)
