(** Big-endian binary readers/writers shared by the binary wire formats
    (RTP, RTCP, STUN, the AV1 dependency descriptor); the text formats
    (SDP, the control-plane RPC) read through {!Text}.

    The reader is a cursor over immutable [bytes]; all parse errors raise
    {!Parse_error} with a human-readable reason, so protocol modules can
    surface malformed packets without partial reads escaping. *)

exception Parse_error of string
(** The one exception every parser of a wire format raises on malformed
    input, binary or text: [Packet.parse], [Rtcp.parse_compound],
    [Stun.parse], [Av1.Dd.parse], [Sdp.of_string] and
    [Scallop.Rpc.decode] raise it and nothing else
    ([test/test_parsers.ml] fuzzes each). *)

val parse_error : ('a, unit, string, 'b) format4 -> 'a
(** [parse_error fmt ...] raises {!Parse_error} with a formatted message. *)

module Reader : sig
  type t

  val of_bytes : bytes -> t
  val pos : t -> int
  val remaining : t -> int
  val eof : t -> bool

  val u8 : t -> int
  val u16 : t -> int
  val u24 : t -> int
  val u32_int : t -> int
  (** [u32] as a non-negative OCaml int. *)

  val take : t -> int -> bytes
  val skip : t -> int -> unit

  val peek_u8 : t -> int
  (** Read a byte without consuming it — the "lookahead" primitive used by
      the switch parser (paper Appendix E). *)
end

module Writer : sig
  type t

  val create : unit -> t
  val length : t -> int
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u24 : t -> int -> unit
  val u32_int : t -> int -> unit
  val bytes : t -> bytes -> unit
  val contents : t -> bytes
end

(** In-place big-endian patching of an already-serialized buffer — the
    data-plane fast path's "header rewrite" primitive. Values are masked
    to field width; the caller guarantees the offsets are in bounds. *)
module Patch : sig
  val u16 : bytes -> pos:int -> int -> unit
  val u32 : bytes -> pos:int -> int -> unit
end
