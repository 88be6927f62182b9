(** Scallop's centralized controller — the signaling server (paper §5.1).

    The controller exchanges SDP with participants, {e intercepts} each
    message and rewrites its connection candidates so that the switch
    appears to every participant as its sole peer, then programs the
    switch agent with the resulting session state. It is involved only
    when a session is created, a participant joins or leaves, or a media
    stream starts/stops — never on the media path.

    One controller can manage several switch agents (the cascading-SFU
    architecture of Appendix A); [create] takes the agent list.

    All controller→agent programming travels as typed {!Rpc} messages
    over a per-switch {!Rpc_transport.Client}: every call is encoded,
    shipped over a simulated control link, decoded and dispatched by the
    agent's RPC server, with timeouts and idempotent retries. [control]
    sets that channel's latency/loss and retry policy; the default is an
    ideal link, under which results are identical to direct calls. *)

type t

type persisted
(** The slice of controller state a journal snapshot carries (intent
    tables plus allocator counters). Abstract — produced and consumed
    via {!compact_journal} and journal replay only. *)

val create :
  Netsim.Engine.t ->
  Netsim.Network.t ->
  Scallop_util.Rng.t ->
  agents:(Switch_agent.t * Dataplane.t) list ->
  ?control:Rpc_transport.config ->
  ?batch:bool ->
  ?journal:persisted Journal.t ->
  ?standby:bool ->
  ?label:string ->
  ?ip:int ->
  unit ->
  t
(** The network argument is not used: the control channels to the
    switches are point-to-point [Rpc_transport] links.

    Meetings are placed round-robin across the given switches; each
    meeting lives wholly on one switch (splitting a meeting across
    switches — true cascading — is future work in the paper as well).

    Session mutations append their wire ops to a per-switch buffer; a
    flush ships it as one fenced [Rpc.Batch]. [batch] (default [true])
    flushes at the end of each public operation — one round trip per
    touched switch — and [false] after every op (the per-op baseline).
    Per-switch op order and at-most-once replay hold either way.

    [journal] (default: a fresh in-memory one) write-ahead logs every
    mutation under the instance's fencing epoch (see the fault-tolerance
    section below); share it to pair the instance with a standby.

    [standby] (default [false]) creates the instance as a tailing
    standby of [journal] instead of an acting primary. [label] (default
    ["ctl"]) names the instance on traces and labels its
    [scallop_ctrl_sdp_messages] counter ([ctrl="..."]: SDP messages
    shipped through the {!Sdp} codec); non-default labels also prefix
    its per-switch RPC metric labels so two instances never collide in
    the registry. [ip] (default 10.255.0.1) is the instance's
    address on the management network — give the standby its own so the
    agents' reply-path caches keyed by (address, seq) never conflate the
    two. *)

type meeting_id = int
type participant_id = int

val create_meeting : t -> meeting_id

val join :
  ?home:int -> ?simulcast:bool -> t -> meeting_id -> Webrtc.Client.t ->
  send_media:bool -> participant_id
(** Full signaling round: the participant's SDP offer is built, shipped
    through the textual SDP codec, candidate-rewritten to splice in the
    SFU, answered — and every existing participant receives a rewritten
    offer for the new sender's streams. All data-plane/agent state is
    installed before the answer returns.

    [home] attaches the participant to a specific switch (by index into
    the agent list); when it differs from other participants' homes the
    controller builds cascade relays between the switches (Appendix A):
    the upstream switch forwards the sender's full-quality stream once to
    the downstream switch, which replicates and rate-adapts for its local
    receivers. Defaults to the meeting's primary switch.

    [simulcast] makes the participant send three renditions instead of
    one SVC stream; the switch splices each receiver onto the best
    rendition its downlink affords (no cascade support for simulcast
    uplinks). *)

val leave : t -> participant_id -> unit

val start_screen_share : t -> participant_id -> unit
(** The paper's third controller trigger: a participant starts sharing a
    new media type mid-call. A fresh stream (own SSRCs, own uplink, own
    legs — and own cascade relays when the meeting spans switches) is
    signalled to every other participant. *)

val stop_screen_share : t -> participant_id -> unit

val screen_connection :
  t -> participant_id -> from:participant_id -> Webrtc.Client.connection option
(** The receive connection carrying [from]'s screen share, if any. *)

type sender_info = { egress_port : int; video_ssrc : int; audio_ssrc : int }

val participant_sender_info : t -> participant_id -> sender_info option
(** The participant's uplink identifiers, if it sends. *)

val set_pair_target :
  t -> sender:participant_id -> receiver:participant_id ->
  Av1.Dd.decode_target -> unit
(** Pin the layer [receiver] gets from [sender] (drives the meeting
    towards RA-SR), via a [Set_pair_target] RPC to the receiver's home
    switch. *)

val recv_connection :
  t -> participant_id -> from:participant_id -> Webrtc.Client.connection option
(** The receive connection carrying [from]'s media at this participant. *)

val send_connection : t -> participant_id -> Webrtc.Client.connection option

val agent_meeting_id : t -> meeting_id -> Switch_agent.meeting_id

val control_channel : t -> int -> Rpc_transport.Client.t
(** The RPC client for the switch at the given agent-list index
    (fault injection). The default instance labels switch [i]'s client
    [client="sw<i>"] in the metrics registry, another instance
    [client="<label>-sw<i>"]; a count over the whole control plane is
    the sum of those [scallop_rpc_*] series. *)

val meeting_participants : t -> meeting_id -> participant_id list

val meeting_switch : t -> meeting_id -> Dataplane.t
(** The switch hosting a meeting (placement introspection). *)

val switch_count : t -> int
val participant_home : t -> participant_id -> int

val switch_agent : t -> int -> Switch_agent.t * Dataplane.t
(** The agent and data plane at the given agent-list index. *)

(** {1 Failure detection and recovery}

    Opt-in: until {!start_health} is called the controller keeps its
    original contract — a control channel that exhausts its retries
    raises {!Rpc_transport.Timed_out} out of the mutating call.

    With health tracking on, the controller probes every agent with a
    [Ping] heartbeat each [heartbeat_every_ns] of virtual time and runs
    a per-agent state machine: [Healthy] → (missed probes ≥
    [suspect_after]) → [Suspect] → (≥ [dead_after]) → [Dead]. Session
    mutations against a [Dead] or healing switch — or whose batch was
    not acknowledged — no longer raise: intent updates normally, the
    wire side is skipped, and the switch is marked as having missed
    ops. A partitioned switch's data plane keeps forwarding throughout.

    Heal is one mechanism, the {e resync}: on the first pong over a
    quiet channel (no call in flight, nothing buffered), a switch that
    rebooted (new epoch, {!Switch_agent.restart}) or missed ops is
    [Reset] and every meeting with a site there is replayed from intent
    as one [Rpc.Batch]. A switch back at the same epoch having missed
    nothing turns [Healthy] with no repair and keeps its state. Ops
    skipped while a resync runs leave the switch out of sync, and the
    next quiet pong resyncs it again. Completed resyncs land in
    {!recovery_log}. *)

type agent_health = Healthy | Suspect | Dead

type health_config = {
  heartbeat_every_ns : int;
  probe_timeout_ns : int;
  suspect_after : int;  (** consecutive missed probes before Suspect *)
  dead_after : int;  (** consecutive missed probes before Dead *)
}

val start_health : ?config:health_config -> t -> unit
(** Arm the heartbeat loop. The loop keeps the engine's event queue
    non-empty, so callers that [Engine.run] to quiescence must
    {!stop_health} (or run [~until:]) to terminate. Restarting after
    {!stop_health} re-arms the loop; [config] is only read the first
    time. It defaults to 500 ms heartbeats, a 250 ms probe timeout,
    Suspect after 2 misses and Dead after 4. *)

val stop_health : t -> unit
(** Stop probing (idempotent). Agent states survive a stop/start
    cycle. *)

val agent_health : t -> int -> agent_health
(** State of the switch at the given agent-list index ([Healthy] when
    health tracking was never started). *)

val health_name : agent_health -> string
(** ["healthy"] / ["suspect"] / ["dead"] — for logs and CLI output. *)

type recovery_event = {
  re_agent : int;
  re_detected_ns : int;  (** when the agent was declared Dead *)
  re_recovered_ns : int;  (** when the resync committed *)
  re_ops : int;  (** RPCs the resync took *)
}

val recovery_log : t -> recovery_event list
(** Heals completed by a resync with nothing skipped under it, newest
    first — bounded to the 64 most recent; older events are evicted
    (counted in {!recovery_log_dropped} and the
    [scallop_ctrl_recovery_log_dropped] metric). [re_recovered_ns -
    re_detected_ns] is the recovery latency the failover experiment
    reports. *)

val recovery_log_dropped : t -> int
(** Recovery events evicted from the bounded log so far. *)

val health_transitions : t -> int -> agent_health -> int
(** How many times the failure detector has transitioned the switch at
    the given index {e into} the given state (also the
    [scallop_ctrl_health_transitions] counter, labelled by agent and
    target state). A flapping agent shows up as matched suspect/healthy
    increments. *)

val resync_switch : t -> int -> int option
(** Anti-entropy entry point: [Reset] the switch at the given index and
    replay every meeting with a site there from controller intent,
    regardless of health state — the repair for a live-but-drifted agent
    (see {!Scallop_analysis}); the same resync a heal runs. Returns the
    number of RPCs issued, or [None] if the switch went Dead or rebooted
    mid-replay (with health tracking on, the replay re-runs when its
    heartbeat answers again). *)

(** {1 Introspection (read-only, for the {!Scallop_analysis} snapshot layer)}

    The controller's session {e intent}: what it believes it has
    programmed into every switch agent. The verifier diffs this against
    the agents' shadow state and the data-plane ground truth, so a lost
    or misapplied control-plane update surfaces as a named finding. *)

type participant_view = {
  pv_pid : participant_id;
  pv_meeting : meeting_id;
  pv_home : int;  (** index of the participant's home switch *)
  pv_sends : bool;
  pv_video_ssrc : int;
  pv_audio_ssrc : int;
  pv_screen_ssrc : int option;  (** video SSRC of the live screen share *)
  pv_sites : (int * int) list;
      (** every switch the participant is registered on, with the egress
          port used there (home switch first in allocation order) *)
  pv_cam_ports : (int * int) list;  (** switch → camera uplink port there *)
  pv_screen_ports : (int * int) list;  (** switch → screen uplink port *)
}

type relay_view = {
  rv_meeting : meeting_id;
  rv_src : int;  (** switch replicating towards the relay *)
  rv_dst : int;  (** switch consuming the relayed stream *)
  rv_pid : participant_id;
      (** pseudo participant standing for everything behind [rv_dst]
          (Appendix A) *)
  rv_egress_port : int;  (** the pseudo receiver's port on [rv_src] *)
}

type meeting_view = {
  cmv_mid : meeting_id;
  cmv_primary : int;
  cmv_members : participant_id list;  (** join order *)
  cmv_sites : (int * int) list;  (** switch index → agent meeting id there *)
}

type health_view = {
  hv_agent : int;
  hv_state : agent_health;
  hv_epoch : int;  (** last epoch seen in a Pong; -1 before the first *)
  hv_skipped : int;  (** ops skipped since the last complete resync *)
}

type intent = {
  in_participants : participant_view list;  (** sorted by pid *)
  in_meetings : meeting_view list;  (** sorted by mid *)
  in_relays : relay_view list;
  in_health : health_view list;  (** one per switch; [] until {!start_health} *)
}

val introspect : t -> intent

(** {1 Controller fault tolerance: journal, crash-rebuild, fenced failover}

    Every controller journals and fences; paired with a standby over a
    shared journal, the controller tier survives the loss of the
    controller itself:

    - {b Write-ahead intent journal} — every public mutation is appended
      to the journal under the instance's fencing epoch {e before} it
      executes. Replaying the journal (on top of its latest compacted
      snapshot) through the same execution paths reconstructs intent
      byte-identically: the allocators are deterministic counters the
      snapshot restores.
    - {b Fencing} — {!promote} mints a strictly larger epoch from the
      journal. Agents remember the highest fence they have seen and
      answer anything older with a stale-fence rejection, so an in-flight
      (or retransmitted) request from a deposed primary can never execute
      after the new primary's takeover [Reset]. The journal refuses
      appends under an old fence, so the deposed primary can never log
      {e new} intent either; both rejections flip it to [Deposed].
    - {b Crash-rebuild} — {!kill} silences the instance ({!restart}
      rebuilds it from the journal as a standby); {!promote} turns a
      caught-up standby (or rebuilt instance) into the acting primary and
      pushes a fenced full resync at every switch.

    See {!Cluster} for the packaged primary/standby pair with heartbeat
    failover. *)

type role = Acting | Standby | Deposed

exception Unavailable
(** Raised by mutating entry points when the instance is killed or a
    standby — the caller routes the op to the acting instance. The op
    was neither journaled nor executed; retrying elsewhere is safe. *)

exception Deposed_primary
(** Raised when the instance discovers (via journal or agent rejection)
    that it has been fenced off. Same retry contract as {!Unavailable}:
    nothing was journaled or executed under the stale fence. *)

val role : t -> role
val fence : t -> int
(** The fencing epoch this instance acts under (0 for a standby that has
    never been promoted). *)

val label : t -> string
val journal : t -> persisted Journal.t option
(** Always [Some]: every controller has a journal. *)

val journal_applied : t -> int
(** Highest journal index reflected in this instance's intent, [-1]
    before anything was applied. *)

val alive : t -> bool
val kill : t -> unit
(** Crash the instance: its control channels transmit nothing (not even
    retransmits of in-flight requests), its failure detector stops, and
    every mutating entry point raises {!Unavailable}. Idempotent. *)

val restart : t -> unit
(** Restart a {!kill}ed instance with blank memory: intent is rebuilt
    from the journal alone (snapshot restore + suffix replay, no wire
    traffic), and the instance comes back as a [Standby] — it must be
    {!promote}d before acting. *)

val promote : t -> unit
(** Take over as acting primary: catch up with the journal, mint a new
    fencing epoch, start the failure detector (with
    the default {!health_config} unless this instance already ran one), then
    push a fenced full
    resync at every switch — installing the new fence on the agents and
    erasing any half-applied state the previous primary left. *)

val apply_tail : t -> int
(** One tailing step: restore the journal's snapshot if it is ahead,
    then replay entries past {!journal_applied} through the normal
    execution paths (intent only — no wire ops, no signaling). Returns
    the number of entries applied. *)

val refresh_role : t -> unit
(** Acting-primary lease check: if the journal's fence has moved past
    this instance's, a standby has been promoted — depose ourselves now
    instead of discovering it on the next wire op. The cluster beat
    timer calls this. *)

val compact_journal : t -> unit
(** Snapshot this instance's state into the journal at its high-water
    mark, dropping the covered entries. Call on a tailing standby after
    {!apply_tail} — never on an acting instance, which may be
    mid-operation with the journal ahead of its intent. *)

val intent_fingerprint : t -> string
(** Canonical rendering of the controller's session intent, for equality
    checks across instances (the killed-vs-never-killed property and the
    cluster drift invariant). Excludes instance-local detail: agent-side
    meeting ids (provisional on a rebuilt instance until its promotion
    resync) and failure-detector state. *)
