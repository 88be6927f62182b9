(** Software split-proxy SFU — the MediaSoup-like baseline (paper §2, §3,
    Fig. 5 left).

    The server terminates a WebRTC connection per participant and
    re-originates each media stream per receiver, with its own sequence
    space, retransmission buffer and rate-adaptation state. Every packet —
    in and out — passes through a {!Netsim.Cpu_queue} work item, so CPU
    saturation produces exactly the queueing delay, jitter and drops the
    paper measures in Figs. 3, 4 and 19.

    Rate adaptation drops SVC enhancement layers per receiver based on the
    receiver's REMB estimates, using the shared
    {!Codec.Rate_policy.select_decode_target} heuristic. Because streams
    are re-originated, sequence numbers stay continuous after drops — the
    split proxy never faces the rewriting problem Scallop's true proxy
    must solve. *)

type t

val create :
  Netsim.Engine.t ->
  Netsim.Network.t ->
  Scallop_util.Rng.t ->
  ip:int ->
  ?cpu:Netsim.Cpu_queue.config ->
  unit ->
  t
(** [cpu] defaults to {!Netsim.Cpu_queue.default_server} (a single pinned
    core, as in the paper's §2.2 experiment). *)

type meeting_id = int
type participant_id = int

val create_meeting : t -> meeting_id

val join :
  t -> meeting:meeting_id -> client:Webrtc.Client.t -> send_media:bool ->
  participant_id
(** Performs the signaling a split proxy would: creates the client's send
    connection towards the SFU (if [send_media]) and a receive connection
    for every current sender's stream, plus the symmetric streams towards
    existing participants. *)

val leave : t -> participant_id -> unit

(** {1 Statistics} *)

val packets_processed : t -> int
(** Total packet handling events in software (every packet leg). *)

val bytes_processed : t -> int
val cpu_utilization : t -> float
val cpu_busy_ns : t -> int
val cpu_dropped : t -> int

val out_stream_count : t -> int
(** Concurrent re-originated stream legs (the capacity unit of the
    32-core calibration in DESIGN.md §4). *)
