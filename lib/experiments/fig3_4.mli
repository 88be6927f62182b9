(** Figs. 3 and 4 — QoE collapse of an under-provisioned software SFU.

    The software SFU is pinned to a single core (as in the paper's §2.2
    MediaSoup experiment) while meetings of ten participants are built up
    incrementally. The quality of the {e first} meeting is measured as
    load grows: receive jitter (Fig. 3) climbs into the hundreds of
    milliseconds and the decoded frame rate (Fig. 4) collapses once the
    CPU saturates (the paper's anchors are in [claims]).

    Media is scaled down (250 kb/s video, no audio) with the CPU cost
    scaled up correspondingly, keeping the participant-count anchors
    while the simulation stays tractable (DESIGN.md §4). *)

type sample = {
  participants : int;
  jitter_p95_ms : float;
  mean_fps : float;
  cpu_utilization : float;
}

type result = {
  series : sample list;
  saturation_participants : int option;  (** first milestone at >=95% CPU *)
  fps_half_participants : int option;  (** first milestone with fps < 15 *)
  mouth_to_ear_p95_ms : float;
      (** worst p95 capture-to-decode delay across meeting-1 receivers —
          the user-facing cost of the SFU's queueing (paper §2.2) *)
}

val compute : ?quick:bool -> unit -> result
val claims : result Claim.t list
val print : result -> unit
