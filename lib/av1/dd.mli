(** AV1 RTP dependency descriptor for the L1T3 SVC profile (paper §5.4,
    Fig. 9, Appendix E).

    Every RTP video packet carries this descriptor as a header extension;
    the template id identifies the temporal layer so the data plane can
    drop enhancement layers without touching the (opaque, potentially
    encrypted) payload. Key frames additionally carry the template
    dependency structure, which only the switch agent parses.

    Encoding note: the real AV1 descriptor is a bit-packed variable-length
    structure; we use a byte-aligned equivalent carrying the same fields
    (documented in DESIGN.md) so the data-plane parsing constraints —
    fixed-offset mandatory fields, variable extended part — are preserved. *)

type temporal_layer = T0 | T1 | T2

type decode_target = DT_7_5fps | DT_15fps | DT_30fps
(** The three decode targets of L1T3: 7.5, 15 and 30 frames/second. *)

type structure = {
  template_layers : temporal_layer array;
      (** [template_layers.(id)] is the temporal layer of template [id]. *)
  decode_target_count : int;
}
(** Template dependency structure, present on key frames only. *)

type t = {
  start_of_frame : bool;
  end_of_frame : bool;
  template_id : int;  (** 6-bit template id. *)
  frame_number : int;  (** 16-bit frame counter, wraps. *)
  structure : structure option;
}

val extension_id : int
(** RFC 8285 extension element id used for the descriptor (= 1). *)

val l1t3_structure : structure
(** The Fig. 9 structure: templates 0,1 → T0; 2 → T1; 3,4 → T2. *)

val l1t3_template : keyframe:bool -> frame_in_cycle:int -> int
(** Template id for position [frame_in_cycle] (0–3) of the 4-frame L1T3
    cycle at 30 fps: T0, T2, T1, T2. Frame 0 of a key-framed cycle uses
    template 0, otherwise 1. *)

val layer_of_template_l1t3 : int -> temporal_layer

val target_includes : decode_target -> temporal_layer -> bool
(** [target_includes dt layer] — packets of [layer] must be forwarded to a
    receiver decoding at [dt]. *)

val template_in_target_l1t3 : int -> decode_target -> bool
val fps_of_target : decode_target -> float
val target_of_index : int -> decode_target
val index_of_target : decode_target -> int
val layer_index : temporal_layer -> int

val serialize : t -> bytes
val parse : bytes -> t

type fields = {
  f_start_of_frame : bool;
  f_end_of_frame : bool;
  f_template_id : int;
  f_frame_number : int;
  f_has_structure : bool;
  f_canonical : bool;
      (** The bytes equal [serialize (parse bytes)] — no trailing slack
          after the structure. When false, an in-place frame-number patch
          is not interchangeable with a parse-and-reserialize. *)
}
(** The descriptor's scalar fields, without materializing the structure
    arrays — what the data-plane fast path needs. *)

val frame_number_pos : int
(** Byte offset of the 16-bit frame number within a serialized
    descriptor (= 1); the fast path patches it in place. *)

val read_fields : bytes -> off:int -> len:int -> fields option
(** Allocation-free validation + field extraction over a sub-range of a
    larger buffer (e.g. straight out of an {!Rtp.Packet.View}). Returns
    [None] exactly when {!parse} would raise on those bytes, [Some]
    otherwise — parity the paranoid differential mode depends on. *)

val fields_of_t : t -> fields
(** The same scalar fields read off a parsed descriptor (slow path);
    [f_canonical] is trivially true. *)

val frame_number_succ : int -> int
val equal : t -> t -> bool
