(** A WebRTC client endpoint (one meeting participant).

    A client owns one {e send connection} (its media uplink — the stream
    the SFU replicates) and one {e receive connection per remote sender},
    matching Scallop's per-participant stream split (paper §5.3, Fig. 8).
    Each connection runs the full protocol machinery a browser would:

    - paced media: 30 fps L1T3 SVC video and 50 pps audio;
    - RTCP sender reports + SDES on a timer while sending;
    - receiver-side GCC with RR+REMB compound feedback;
    - NACK generation from sequence gaps, retransmission from a history
      buffer on receipt;
    - PLI on decoder freeze/starvation, key-frame generation on PLI;
    - periodic STUN connectivity checks, answered by the remote side.

    Clients are deliberately ignorant of whether their "peer" is another
    client, a split-proxy SFU, or Scallop's spliced data plane — that is
    the P2P illusion the paper preserves. *)

type t

type feedback_mode =
  | Remb  (** receiver-driven: periodic aggregate estimates (what Scallop
              selects, §5.2) *)
  | Twcc  (** sender-driven: per-packet arrival feedback every ~15 media
              packets — the mode the paper rejects as control-plane load *)

type config = {
  ip : int;
  send_video : bool;
  send_audio : bool;
  video_bitrate_bps : int;
  feedback_mode : feedback_mode;
  sr_interval_ns : int;
  remb_poll_interval_ns : int;
  nack_poll_interval_ns : int;
  stun_interval_ns : int;
  rr_interval_ns : int;  (** cadence of standalone receiver reports *)
}

val default_config : ip:int -> config
(** Sends video (2.5 Mb/s) and audio; SR every 700 ms; REMB polled every
    100 ms; NACKs every 20 ms; STUN every 2.5 s. *)

val create :
  Netsim.Engine.t -> Netsim.Network.t -> Scallop_util.Rng.t -> config -> t

val ip : t -> int

val fresh_port : t -> int
(** Allocate an unused local UDP port (signaling helpers use this when
    creating connections on the client's behalf). *)

(** {1 Connections} *)

type connection

val add_send_connection :
  ?send_audio:bool -> ?video_bitrate:int -> t -> local_port:int ->
  remote:Scallop_util.Addr.t -> video_ssrc:int -> audio_ssrc:int -> connection
(** Starts media pacing immediately. The optional arguments override the
    client config for this connection — a screen-share stream, say, sends
    no audio and runs at its own bitrate. *)

val add_simulcast_send_connection :
  t -> local_port:int -> remote:Scallop_util.Addr.t -> base_ssrc:int ->
  audio_ssrc:int -> connection
(** A simulcast uplink: three renditions of the same video at descending
    bitrates (SSRCs [base_ssrc], [base_ssrc+2], [base_ssrc+4]), plus
    audio. The SFU decides which rendition each receiver gets. *)

val add_recv_connection :
  t -> local_port:int -> remote:Scallop_util.Addr.t -> video_ssrc:int ->
  audio_ssrc:int -> connection
(** [video_ssrc]/[audio_ssrc] are the remote sender's stream ids. *)

val attach_qoe :
  connection ->
  meeting:int ->
  receiver:int ->
  sender:int ->
  media:Scallop_obs.Qoe.media ->
  unit
(** Attach per-stream QoE collectors (video + audio) to a receive
    connection's decoders, keyed by the meeting/receiver/sender identity
    only the controller knows. Incoming traced packets are then anchored
    on the collector for root-cause attribution. *)

val deliver : t -> connection -> Netsim.Dgram.t -> unit
(** The handler bound at the connection's local address: what the
    network calls when a datagram reaches it. RTP is read in place
    ({!Rtp.Packet.View}) and handed to the decoders and the GCC
    estimator; malformed packets are dropped. Calling it directly drives
    a connection without the network in between. *)

val close_connection : t -> connection -> unit
(** Sends an RTCP BYE for the connection's streams, then stops its timers
    and unbinds its port. Idempotent: closing an already-closed
    connection does nothing (controller failover replays can close the
    same shared connection twice). *)

val connections : t -> connection list

val connected : connection -> bool
(** ICE state: true once a connectivity check has succeeded. Media and
    reports are held until then. *)

val local_addr : connection -> Scallop_util.Addr.t
val remote_addr : connection -> Scallop_util.Addr.t

(** {1 Sender-side controls and stats} *)

val video_bitrate : connection -> int
val retransmissions : connection -> int
(** Packets re-sent due to received NACKs. *)

val send_fps_series : connection -> Scallop_util.Timeseries.t option

(** {1 Receiver-side stats} *)

val receiver : connection -> Codec.Video_receiver.t option
val gcc_estimate : connection -> int option
val audio_packets_received : connection -> int
val audio_receiver : connection -> Codec.Audio_receiver.t option
val srs_received : connection -> int
val stun_rtt_ms : connection -> float option
(** Latest STUN round-trip measurement. *)

(** {1 Experiment hooks} *)

val set_tx_hook : t -> (time_ns:int -> Netsim.Dgram.t -> unit) -> unit
(** Called for every datagram the client sends. *)

val set_rx_hook : t -> (time_ns:int -> Netsim.Dgram.t -> unit) -> unit
