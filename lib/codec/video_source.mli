(** Synthetic AV1-SVC video source.

    Emits the L1T3 frame pattern of the paper's Fig. 9 at 30 fps: a
    4-frame cycle of layers T0, T2, T1, T2. Frame sizes follow the target
    bitrate with per-layer weights and lognormal variation; key frames are
    several times larger and carry the template dependency structure in
    their AV1 dependency descriptor. Frames are packetized into RTP so
    that a frame never shares a packet with another frame (layer-aligned
    packetization is what makes SVC dropping possible, paper §3). *)

type config = {
  ssrc : int;
  payload_type : int;
  target_bitrate_bps : int;
  mtu : int;  (** Max RTP payload bytes per packet. *)
  keyframe_interval : int;  (** Frames between periodic key frames; 0 = only on demand. *)
}

val default_config : ssrc:int -> config
(** 720p-ish defaults: pt 96, 2.5 Mb/s, 1160-byte MTU, 10 s key frames. *)

type frame = {
  number : int;
  template_id : int;
  layer : Av1.Dd.temporal_layer;
  keyframe : bool;
  size_bytes : int;
  packets : Rtp.Packet.t list;
}

type t

val create : Scallop_util.Rng.t -> config -> t

val next_frame : t -> time_ns:int -> frame
(** Produce the next frame in the cycle; the caller owns pacing (call it
    every 1/30 s). [time_ns] stamps the RTP timestamp (90 kHz clock). *)

val set_bitrate : t -> int -> unit
(** Sender-side rate adaptation on REMB feedback. *)

val bitrate : t -> int

val request_keyframe : t -> unit
(** Force the next frame to be a key frame (PLI handling). *)

