(** UDP-payload classification, mirroring the Scallop parser's lookahead
    (paper Appendix E): the data plane peeks at the first bits of the UDP
    payload to decide whether a packet is RTP media, RTCP feedback, or
    STUN, without committing to a full software parse. *)

type kind = Rtp_media | Rtcp_feedback | Stun_packet | Unknown

val classify : bytes -> kind
(** RTP and RTCP share version bits [10]; they are separated by the RTCP
    packet-type range 192–223 in the second byte (RFC 5761). STUN starts
    with two zero bits and carries the magic cookie. *)

val rtcp_packet_type : bytes -> int option
(** Packet type of the first RTCP packet in a compound payload, without a
    full parse — what the data plane matches on to pick CPU-port copies. *)

