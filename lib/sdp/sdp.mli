(** Session Description Protocol (offer/answer, RFC 3264/8866 subset) plus
    ICE candidate lines.

    Scallop's controller acts as the signaling server: it intercepts SDP
    messages and rewrites the connection candidates so that the SFU appears
    to each participant as its sole peer (paper §5.1). This module provides
    the wire text format and the candidate-rewriting primitive that makes
    that splice possible. *)

type media_kind = Audio | Video | Screen

type direction = Sendrecv | Sendonly | Recvonly | Inactive

type candidate = {
  foundation : string;
  component : int;  (** 1 = RTP (RTCP is muxed). *)
  priority : int;
  addr : Scallop_util.Addr.t;
  typ : string;  (** "host", "srflx", "relay". *)
}

type media = {
  kind : media_kind;
  mid : string;
  payload_type : int;
  codec : string;  (** e.g. "AV1", "opus". *)
  clock_rate : int;
  ssrc : int;
  cname : string;
  direction : direction;
  candidates : candidate list;
  extmaps : (int * string) list;  (** RTP header-extension id → URI. *)
  svc_mode : string option;  (** e.g. ["L1T3"]. *)
}

type t = {
  session_id : int;
  origin_addr : Scallop_util.Addr.t;
  ice_ufrag : string;
  ice_pwd : string;
  medias : media list;
}

val host_candidate : Scallop_util.Addr.t -> candidate

val make_media :
  ?direction:direction ->
  ?extmaps:(int * string) list ->
  ?svc_mode:string option ->
  kind:media_kind ->
  mid:string ->
  payload_type:int ->
  codec:string ->
  clock_rate:int ->
  ssrc:int ->
  cname:string ->
  candidates:candidate list ->
  unit ->
  media

val to_string : t -> string
(** The wire text, one line per field, each ending in a newline. Its
    bytes are fixed: [test_sdp] pins a controller-built offer and
    answer. *)

val of_string : string -> t
(** [of_string (to_string x) = x] for every [x] whose text the format
    can carry (an origin port of 0; no whitespace inside a token or
    around a value).
    @raise Rtp.Wire.Parse_error on malformed SDP, naming the bad line
    (a malformed number or address included); no other exception
    escapes. *)

val rewrite_candidates : t -> Scallop_util.Addr.t -> t
(** [rewrite_candidates sdp sfu_addr] replaces every media section's
    candidate list with a single host candidate at [sfu_addr] — the
    controller's splice that inserts the SFU while preserving the P2P
    illusion. *)

val answer : offer:t -> session_id:int -> origin:Scallop_util.Addr.t ->
  ice_ufrag:string -> ice_pwd:string ->
  media_for:(media -> media option) -> t
(** Builds an answer by mapping each offered media section through
    [media_for] (returning [None] rejects the section, which flips its
    direction to [Inactive]). Codec and payload type must match the offer;
    directions are mirrored. *)

val equal : t -> t -> bool
