(** Per-receiver quality-of-experience collection.

    One collector per [(meeting, receiver, sender, media, kind)] stream
    leg, fed by hooks the codec receivers and the WebRTC client call as
    media arrives: freeze/stall intervals, temporal-layer residency,
    mouth-to-ear latency (virtual-time capture→decode), loss and
    out-of-order counts — aggregated into windowed
    {!Scallop_util.Timeseries} plus bounded sample rings so the SLO
    engine ({!Slo}) can evaluate sliding windows and attribution
    ({!Attrib}) can walk back from the victim's recent trace ids.

    The live collectors are the [scallop_qoe_*] metric families
    (labelled by key), read from this module's table when {!Metrics}
    dumps; a collector adds no registry entries. All hooks are O(1)
    (amortized: the mouth-to-ear ring doubles when full, up to its
    cap); windowed queries are only run at evaluation/report time. A collector holds ring storage only
    for what it has seen: the mouth-to-ear ring grows with its samples,
    and the trace-id ring exists only after a traced packet. *)

type media = Camera | Screen
type kind = Video | Audio

type key = {
  k_meeting : int;
  k_receiver : int;  (** participant id of the receiving client *)
  k_sender : int;  (** participant id of the stream's origin *)
  k_media : media;
  k_kind : kind;
}

val media_str : media -> string
val kind_str : kind -> string
val media_of_str : string -> media option
val kind_of_str : string -> kind option

val key_str : key -> string
(** ["m<meeting>/p<receiver><-p<sender>/<media>/<kind>"]. *)

type t

val collector : ?bin_ns:int -> key -> t
(** Get or create the collector for [key] (default 1 s bins). *)

val find : key -> t option
val key_of : t -> key

val set_host : t -> string -> unit
(** Record the receiving client's host address (e.g. ["10.0.1.3"]).
    Attribution ({!Attrib}) uses it to recognize the victim's own access
    links, which {!Netsim.Network} names ["up:<host>"]/["down:<host>"]. *)

val host : t -> string
(** The recorded host address; [""] until {!set_host}. *)

val all : unit -> t list
(** Every live collector, sorted by key — deterministic iteration order. *)

val reset : unit -> unit
(** Drop all collectors (fresh world / tests), and with them their
    [scallop_qoe_*] series. *)

(** {2 Collection hooks} — all (amortized) O(1), called from the media
    path. *)

val on_packet : t -> time_ns:int -> size:int -> unit
val on_gap : t -> time_ns:int -> count:int -> unit
(** [count] packets newly noticed missing (treated as loss until filled). *)

val on_gap_filled : t -> time_ns:int -> unit
(** A previously noticed gap was filled by a retransmission or a
    reordered arrival. *)

val on_duplicate : t -> time_ns:int -> unit
val on_frame : t -> time_ns:int -> layer:int -> unit
(** A frame decoded at temporal layer [layer] (0..2, clamped). *)

val on_mouth_to_ear : t -> time_ns:int -> ms:float -> unit
val on_freeze_begin : t -> time_ns:int -> unit
val on_freeze_end : t -> time_ns:int -> unit

val on_stall : t -> from_ns:int -> until_ns:int -> unit
(** A retroactively detected decode stall (noticed when the next frame
    finally decoded): records the closed interval without touching the
    open freeze state. *)

val note_trace : t -> time_ns:int -> trace:int -> unit
(** Record a per-packet trace id that reached this receiver — the causal
    anchors attribution starts from. No-op for untraced packets ([-1]);
    the first traced one allocates the ring. *)

(** {2 Windowed queries} *)

val frozen_ns_between : t -> from_ns:int -> until_ns:int -> int
val freeze_ratio_between : t -> from_ns:int -> until_ns:int -> float option
(** Frozen share of the window (clamped to the stream's lifetime);
    [None] when the stream did not exist in the window. *)

val m2e_percentile_between :
  t -> from_ns:int -> until_ns:int -> p:float -> float option

val m2e_bad_fraction_between :
  t -> from_ns:int -> until_ns:int -> threshold_ms:float -> float option
(** Fraction of mouth-to-ear samples in the window exceeding the
    threshold; [None] when the window holds no samples. *)

val loss_ratio_between : t -> from_ns:int -> until_ns:int -> float option
(** Unrecovered-gap share of expected packets in the window. *)

val traces_between : t -> from_ns:int -> until_ns:int -> int list
(** Distinct trace ids noted in the window, ascending. *)

(** {2 Summaries} *)

type summary = {
  s_key : key;
  s_packets : int;
  s_bytes : int;
  s_gap_packets : int;
  s_recovered : int;
  s_duplicates : int;
  s_frames : int;
  s_layer_share : float array;  (** decoded-frame share per temporal layer *)
  s_freeze_count : int;
  s_frozen_ms : float;
  s_freeze_ratio : float;
  s_m2e_p50_ms : float option;
  s_m2e_p99_ms : float option;
  s_loss_ratio : float;
}

val summary : t -> now_ns:int -> summary

val first_ns : t -> int
(** Time of the first observation; [-1] before any. *)

val m2e_histogram : t -> Scallop_util.Stats.Histogram.t
