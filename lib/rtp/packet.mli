(** RTP packets (RFC 3550) with RFC 8285 header extensions.

    All media in the system — synthetic AV1 SVC video and Opus-like audio —
    is carried in these packets, and both the software SFU and the Scallop
    data plane parse and rewrite them at the byte level, exactly as the
    paper's P4 program does.

    Integers are plain [int]s constrained to their wire width; values are
    masked on serialization. Sequence numbers are 16-bit and wrap. *)

type extension = { id : int; data : bytes }
(** One RFC 8285 header-extension element. The AV1 dependency descriptor
    (module {!Av1}) travels as one of these. *)

type t = {
  marker : bool;  (** M bit; set on the last packet of a video frame. *)
  payload_type : int;  (** 7-bit payload type. *)
  sequence : int;  (** 16-bit sequence number. *)
  timestamp : int;  (** 32-bit media timestamp. *)
  ssrc : int;  (** 32-bit synchronization source. *)
  csrcs : int list;  (** Contributing sources (unused by WebRTC; kept for fidelity). *)
  extensions : extension list;
  payload : bytes;
}

val make :
  ?marker:bool ->
  ?csrcs:int list ->
  ?extensions:extension list ->
  payload_type:int ->
  sequence:int ->
  timestamp:int ->
  ssrc:int ->
  bytes ->
  t

val serialize : t -> bytes
(** Encodes with a one-byte extension profile (0xBEDE) when every element
    fits (id 1–14, length 1–16 bytes), otherwise the two-byte profile. *)

val parse : bytes -> t
(** @raise Wire.Parse_error on malformed input. *)

val find_extension : t -> int -> bytes option

(** Allocation-free view over a serialized RTP packet — the data-plane
    fast path's ingress representation. One pass records the fixed header
    fields plus byte offsets into the original buffer, without
    materializing a record, extension list, or payload copy; forwarding
    then works by [Bytes.copy] + {!Wire.Patch} at the recorded offsets,
    exactly like the hardware pipeline's header rewrite. *)
module View : sig
  type t = private {
    buf : bytes;  (** The underlying (unowned, unmodified) buffer. *)
    marker : bool;
    payload_type : int;
    sequence : int;
    timestamp : int;
    ssrc : int;
    ext_off : int;
        (** Byte offset of the requested extension element's data within
            [buf], or -1 when the element is absent. *)
    ext_len : int;  (** Its length in bytes (0 when absent). *)
    payload_off : int;
    payload_len : int;  (** Payload extent, excluding any RTP padding. *)
    canonical : bool;
        (** [buf] is byte-identical to [serialize (parse buf)]; when
            false (padding bit, extension terminator/interior padding,
            non-minimal profile...), copy-and-patch is not equivalent to
            parse-and-reserialize and callers must take the slow path. *)
  }

  val sequence_pos : int
  (** Fixed byte offset of the 16-bit sequence number (2). *)

  val ssrc_pos : int
  (** Fixed byte offset of the 32-bit SSRC (8). *)

  val of_bytes : ?ext_id:int -> bytes -> t
  (** [ext_id] selects which extension element's extent to record (e.g.
      the AV1 dependency descriptor's id). Accepts and rejects exactly
      the same inputs as {!parse}.
      @raise Wire.Parse_error on malformed input. *)
end
val with_sequence : t -> int -> t
val with_ssrc : t -> int -> t
val wire_size : t -> int
(** Size in bytes of [serialize t] without serializing. *)

val seq_succ : int -> int
val seq_add : int -> int -> int
val seq_sub : int -> int -> int
(** [seq_sub a b] is the signed distance from [b] to [a] in 16-bit sequence
    space, in [\[-32768, 32767\]]. Positive means [a] is newer. *)

val seq_newer : int -> int -> bool
(** [seq_newer a b] — [a] is strictly ahead of [b] modulo 2^16. *)

val equal : t -> t -> bool
