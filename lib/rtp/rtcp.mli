(** RTCP packets (RFC 3550) plus the feedback formats Scallop handles:
    NACK (RFC 4585 RTPFB), PLI (RFC 4585 PSFB) and REMB
    (draft-alvestrand-rmcat-remb, carried as PSFB/ALFB).

    RTCP packets travel in compound packets; {!serialize_compound} and
    {!parse_compound} operate on whole UDP payloads.  The Scallop data
    plane never parses past the common header — it only needs the packet
    type to decide forwarding vs. CPU-port copies (paper §5.5). *)

type report_block = {
  ssrc : int;  (** Stream this block reports on. *)
  fraction_lost : int;  (** 8-bit fixed point, /256. *)
  cumulative_lost : int;  (** 24-bit signed. *)
  highest_seq : int;  (** Extended highest sequence number received. *)
  jitter : int;  (** Interarrival jitter in timestamp units. *)
  last_sr : int;  (** Last SR timestamp (LSR). *)
  dlsr : int;  (** Delay since last SR, 1/65536 s. *)
}

type sender_info = {
  ntp_sec : int;
  ntp_frac : int;
  rtp_ts : int;
  packet_count : int;
  octet_count : int;
}

type sdes_item = Cname of string

type t =
  | Sender_report of { ssrc : int; info : sender_info; reports : report_block list }
  | Receiver_report of { ssrc : int; reports : report_block list }
  | Sdes of (int * sdes_item list) list
  | Bye of { ssrcs : int list; reason : string option }
  | Nack of { sender_ssrc : int; media_ssrc : int; lost : int list }
      (** [lost] is the explicit list of missing sequence numbers; the codec
          packs/unpacks the PID+BLP wire representation. *)
  | Pli of { sender_ssrc : int; media_ssrc : int }
  | Remb of { sender_ssrc : int; bitrate_bps : int; ssrcs : int list }
  | Twcc of {
      sender_ssrc : int;
      media_ssrc : int;
      base_seq : int;
      fb_count : int;  (** feedback packet counter, wraps at 256 *)
      deltas : int list;
          (** per-packet receive-time deltas in 250 µs ticks, one per media
              packet covered (sender-driven congestion control feedback,
              RFC 8888-style; the paper rejects this mode because one such
              packet is needed every 10–20 media packets, §5.2) *)
    }

val serialize : t -> bytes
val parse : bytes -> t
val serialize_compound : t list -> bytes
val parse_compound : bytes -> t list

val packet_type : t -> int
(** Wire packet type: 200 SR, 201 RR, 202 SDES, 203 BYE, 205 RTPFB,
    206 PSFB. *)

val equal : t -> t -> bool
