(** Simulcast video source: the same (synthetic) scene encoded as several
    independent L1T3 streams at decreasing bitrates, each with its own
    SSRC, sequence and frame numbering — what a browser produces when
    simulcast is negotiated. *)

type config = {
  base_ssrc : int;  (** rendition i uses [base_ssrc + 2 * i] *)
  payload_type : int;
  bitrates : int array;  (** highest quality first *)
  mtu : int;
  keyframe_interval : int;
}

val default_config : base_ssrc:int -> config
(** Three renditions: 2.5 Mb/s, 900 kb/s, 300 kb/s. *)

type t

val create : Scallop_util.Rng.t -> config -> t

val next_frames : t -> time_ns:int -> Video_source.frame list
(** One frame per rendition, to be sent every 1/30 s. *)

val request_keyframe : t -> rendition:int -> unit
(** Key-frame request for one rendition (a PLI names its SSRC). *)

val rendition_of_ssrc : t -> int -> int option
