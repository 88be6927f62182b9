(** Scallop's switch agent — the latency-sensitive middle tier that runs on
    the switch CPU (paper §4, §5).

    The agent receives CPU-port copies from the data plane and never
    touches media. Its jobs:

    - {b STUN}: answer connectivity checks (too complex for the parser,
      not latency-critical, §5.1);
    - {b feedback filtering} (§5.3): keep an EWMA of every receiver leg's
      REMB estimates per sender stream, select the best-performing
      downlink, and configure the data plane to forward only that leg's
      REMB to the sender;
    - {b layer selection} (§5.4): run
      {!Codec.Rate_policy.select_decode_target} on each receiver leg's
      smoothed estimate and reconfigure the data plane / replication
      trees when the target changes;
    - {b key-frame analysis}: consume RTP packets carrying an extended
      AV1 dependency descriptor and refresh the template→layer mapping;
    - {b tree migration} (§6.1): move meetings between Two_party / NRA /
      RA-R / RA-SR designs as their adaptation needs change, by building
      the new trees before retiring the old ones.

    The controller (tier 1) drives session state through the {!Rpc}
    message vocabulary, delivered by this agent's {!Rpc_transport.Server}
    over a simulated control link; the registration functions below are
    the agent-local operations those messages dispatch to. *)

type t

val create :
  Netsim.Engine.t ->
  Dataplane.t ->
  ?rewrite:Seq_rewrite.variant ->
  ?rewriting_enabled:bool ->
  ?feedback_filter:bool ->
  unit ->
  t
(** Installs itself as the data plane's CPU sink. [rewrite] (default S_LM)
    is used for rate-adapted legs.

    The last two switches exist for ablation studies:
    [rewriting_enabled:false] registers legs without sequence-rewriting
    state, so rate adaptation leaves raw gaps (the naive design §6.2
    argues against); [feedback_filter:false] forwards {e every} receiver's
    REMB to the sender instead of the best downlink's, recreating the
    mixed-feedback collapse of §5.3/Fig. 8.

    The agent counts into the metrics registry under the data plane's
    label ([switch="..."]): [scallop_agent_stun_answered],
    [_rembs_analyzed], [_target_changes] and [_migrations]; its RPC
    server adds [scallop_agent_rpc_calls] ({!Rpc_transport.Server}).
    The data plane counts what it sends the agent over the CPU port
    ({!Dataplane.cpu_pkts}, {!Dataplane.cpu_bytes}). *)

(** {1 Session registration (the targets of the {!Rpc} vocabulary)} *)

type meeting_id = int

val meeting_design : t -> meeting_id -> Trees.design

val register_participant :
  t -> meeting:meeting_id -> participant:int -> egress_port:int -> sends:bool -> unit

(** {1 Control-plane endpoint} *)

val dispatch : t -> Rpc.request -> Rpc.reply
(** Execute one control-plane request against agent state. Normally
    invoked by {!rpc_server} for each message off the wire; exposed for
    tests that drive the agent without a transport. An [Rpc.Batch] runs
    its ops in list order and answers with an [Rpc.Batch_reply] holding
    one reply per op; a member that fails contributes an [Rpc.Error]
    slot while the remaining ops still execute. *)

val rpc_server : t -> Rpc_transport.Server.t
(** The agent's control-plane endpoint, created with the agent. The
    controller connects an {!Rpc_transport.Client} to it; duplicate
    deliveries are answered from the server's replay cache, keeping
    every operation idempotent on the wire. *)

(** {1 Crash and restart}

    The failure model is a whole-switch power loss: agent process and
    ASIC tables die together. {!crash} takes the switch down — session
    state and data-plane tables are wiped (the memory is gone with the
    power), the RPC endpoint stops answering, the CPU port goes deaf.
    {!restart} is a fresh boot: empty state, empty RPC replay cache,
    and a bumped {!epoch}, which the agent reports in every heartbeat
    [Pong] so the controller can tell "rebooted and blank" (full
    resync needed) from "was merely unreachable" (deferred ops can
    simply drain). *)

val crash : t -> unit
(** Idempotent: crashing a dead switch does nothing. *)

val restart : t -> unit
(** Boot (back) up with empty state and [epoch + 1]. Restarting a
    running switch models a reboot — the crash happens implicitly. *)

val epoch : t -> int

val current_target : t -> meeting:meeting_id -> sender:int -> receiver:int ->
  Av1.Dd.decode_target

val meeting_members : t -> meeting_id -> int list
(** Participants currently registered in a meeting, in registration
    order (introspection for state-equivalence tests). *)

(** {1 Introspection (read-only, for the {!Scallop_analysis} snapshot layer)}

    The agent's shadow of every session it manages: meetings, members,
    sender streams and their legs, as the agent believes the data plane is
    programmed. The verifier diffs this against controller intent on one
    side and data-plane ground truth on the other. *)

type leg_view = {
  alv_port : int;
  alv_receiver : int;
  alv_adaptive : bool;
  alv_target : Av1.Dd.decode_target;
}

type stream_view = {
  asv_uplink_port : int;
  asv_sender : int;
  asv_video_ssrc : int;
  asv_audio_ssrc : int;
  asv_renditions : (int * int) array;
  asv_best_leg : int option;  (** the leg whose REMB is forwarded upstream *)
  asv_legs : leg_view list;
}

type meeting_view = {
  amv_id : meeting_id;
  amv_design : Trees.design;
  amv_handle : Trees.handle;
  amv_members : (int * int) list;  (** participant, egress port *)
  amv_senders : int list;
  amv_pair_specific : bool;
  amv_streams : stream_view list;
}

val introspect : t -> meeting_view list
(** Every meeting the agent manages, sorted by id. *)

