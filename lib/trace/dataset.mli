(** Synthetic campus video-conferencing workload, standing in for the
    paper's Zoom Account API dataset (Appendix B: 19,704 meetings over two
    weeks) and the derived campus-load figures.

    The generator reproduces the distributional shapes the paper reports:

    - 60% two-party meetings (§6.1), a classroom bump around 25, and a
      long tail of large meetings;
    - diurnal weekday concurrency with morning/afternoon peaks and quiet
      weekends (Figs. 20–21);
    - per-participant media activity — audio nearly always on, video on
      for most participants but decaying with meeting size, occasional
      screen share — counting only streams active for at least 10% of the
      meeting (Fig. 2);
    - byte rates for Fig. 22, with video ≈ 1.4 Mb/s and audio ≈ 50 kb/s
      per active stream. *)

type stream_kind = Audio | Video | Screen

type source = {
  participant : int;
  kind : stream_kind;
  duty : float;  (** fraction of the meeting this stream is active *)
}

type meeting = {
  id : int;
  start_ns : int;
  duration_ns : int;
  size : int;  (** maximum concurrent participants *)
  sources : source list;
}

type t = { meetings : meeting array; horizon_ns : int }

val generate :
  Scallop_util.Rng.t -> ?days:int -> ?meetings:int -> unit -> t
(** Defaults: 14 days, 19,704 meetings. *)

val active_sources : meeting -> source list
(** Sources with duty >= 10% — the paper's counting rule. *)

val streams_at_sfu : meeting -> int
(** Media streams the SFU carries for this meeting: every active source is
    received once and fanned out to the other [size - 1] participants,
    i.e. [sources * size] stream endpoints (the 2N^2 upper bound of
    Fig. 2 when everyone shares audio and video). *)

val two_party_fraction : t -> float

val fig2_rows : t -> (int * int * float * int * int) list
(** Per meeting size: [(size, min, median, max, bound)] of
    {!streams_at_sfu}, with [bound = 2 * size^2]. *)

val concurrency_series :
  t -> bin_ns:int -> Scallop_util.Timeseries.t * Scallop_util.Timeseries.t
(** (concurrent meetings, concurrent participants), averaged per bin. *)

val byte_rate_series :
  t -> bin_ns:int -> Scallop_util.Timeseries.t * Scallop_util.Timeseries.t
(** (software SFU bytes/s, Scallop switch-agent bytes/s) over time: a
    software SFU touches every media byte (uplinks + fan-out), while the
    agent sees only the control-plane share (0.35% of bytes, Table 1). *)

val agent_byte_share : float
