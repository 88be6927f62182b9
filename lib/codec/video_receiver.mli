(** Receiver-side decoder model for one SVC video stream.

    Reproduces the WebRTC receiver behaviour the paper's design hinges on
    (§6.2): sequence gaps are treated as network loss and trigger NACKs,
    while a sequence number that is reused for *different* data corrupts
    decoder state and freezes playback until the next key frame. Frames
    are assembled from packets, checked against their L1T3 dependencies,
    and counted into receive-fps / bitrate / jitter statistics — the
    quantities plotted in Figs. 3, 4 and 14. *)

type t

val create : ?nack_delay_ns:int -> ?pli_timeout_ns:int -> ssrc:int -> unit -> t
(** [nack_delay_ns] is the reordering tolerance before a gap is NACKed
    (default 30 ms); [pli_timeout_ns] the freeze duration before a PLI is
    requested (default 500 ms). *)

val receive : t -> time_ns:int -> Rtp.Packet.View.t -> unit
(** Account one received packet, read in place from its serialized
    bytes: the view must be taken with [~ext_id:Av1.Dd.extension_id] so
    its extension extent is the dependency descriptor's. The packet's
    size is the buffer length; a packet without a well-formed descriptor
    counts toward the statistics but not toward frame assembly. Packets
    of other SSRCs are ignored. *)

val set_qoe : t -> Scallop_obs.Qoe.t -> unit
(** Attach a QoE collector; the receiver then reports packets, gaps and
    recoveries, duplicates, per-layer decoded frames, mouth-to-ear
    samples, broken-playback freezes and decode stalls (> 250 ms between
    decodes) into it. *)

val qoe : t -> Scallop_obs.Qoe.t option

val poll_nacks : t -> time_ns:int -> int list
(** Sequence numbers overdue for retransmission; each is returned once. *)

val poll_pli : t -> time_ns:int -> bool
(** [true] if the decoder is broken/starved and a PLI should be sent now
    (throttled internally to one per timeout period). *)

(** Statistics *)

val frames_decoded : t -> int
val frames_incomplete : t -> int
val frames_undecodable : t -> int
val freezes : t -> int
val frozen : t -> bool
val nacks_sent : t -> int
val duplicates : t -> int
val packets_received : t -> int
val bytes_received : t -> int
val jitter_ms : t -> float
(** RFC 3550 interarrival jitter estimate, in milliseconds. *)

val fps_series : t -> Scallop_util.Timeseries.t
(** Decoded frames per 1 s bin. *)

val bitrate_series : t -> Scallop_util.Timeseries.t
(** Received media bytes per 1 s bin (all packets, decodable or not). *)

val jitter_percentile_series : t -> p:float -> (float * float) array
(** [(bin_start_seconds, pth-percentile jitter in ms)] per 1 s bin, from
    the per-packet jitter estimates observed in that bin. *)

val mouth_to_ear_ms : t -> p:float -> float
(** Percentile of the capture-to-decode delay over all decoded frames
    (computed from the 90 kHz RTP timestamp vs decode time) — the
    "mouth-to-ear" component the SFU contributes to (paper §2.2).
    @raise Invalid_argument if nothing decoded. *)
