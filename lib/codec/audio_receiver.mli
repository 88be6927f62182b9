(** Receiver-side model for one audio stream: loss and jitter accounting
    (audio is never rate-adapted by the SFU, so unlike video there is no
    frame machinery — each packet is one 20 ms frame, and a missing packet
    is a concealment event at playout). *)

type t

val create : ssrc:int -> t
val receive : t -> time_ns:int -> Rtp.Packet.View.t -> unit
(** Account one received packet, read in place from its serialized
    bytes; its size is the buffer length. Packets of other SSRCs are
    ignored. *)

val set_qoe : t -> Scallop_obs.Qoe.t -> unit
(** Attach a QoE collector; the receiver then reports packets, gaps,
    late-fill recoveries and duplicates into it. *)

val qoe : t -> Scallop_obs.Qoe.t option

val packets_received : t -> int
val packets_lost : t -> int
(** Sequence-gap count (retransmitted packets arriving late still count as
    a concealment the playout already performed). *)

val loss_rate : t -> float
val jitter_ms : t -> float
(** RFC 3550 interarrival jitter (48 kHz clock), in milliseconds. *)

val duplicates : t -> int
