(** Opus-like audio source: one ~128-byte packet every 20 ms (50 pps),
    matching the paper's Table 1 audio profile (~200 B on the wire). *)

type config = { ssrc : int; payload_type : int; frame_bytes : int }

val default_config : ssrc:int -> config
(** pt 111, 128-byte frames. *)

type t

val create : Scallop_util.Rng.t -> config -> t

val next_packet : t -> time_ns:int -> Rtp.Packet.t
(** Call every 20 ms; timestamps use the 48 kHz Opus clock. *)

val interval_ns : int
(** 20 ms. *)
