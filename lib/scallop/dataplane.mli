(** The Scallop data plane — the behavioural equivalent of the paper's
    ~2000 lines of P4 (paper §6, Appendix E).

    Attached to the simulated network as the switch host, it processes
    every packet addressed to the SFU:

    - {b classification} by UDP-payload lookahead (RTP / RTCP / STUN);
    - {b media path}: parse the RTP header and the AV1 dependency
      descriptor extension; look up the sender's uplink entry; obtain PRE
      metadata from {!Trees}; replicate; per replica, look up the
      (receiver, SSRC) egress entry; if the leg is rate-adapted, drop
      suppressed layers and run the {!Seq_rewrite} heuristic; rewrite
      source/destination addresses (true-proxy addressing) and emit after
      a fixed pipeline latency;
    - {b feedback path}: NACK / PLI / REMB arriving on a leg port are
      forwarded upstream to the sender without delay — REMB only when the
      switch agent has selected this leg as the best downlink — and copied
      to the CPU port; sender reports are replicated downstream;
    - {b control path}: STUN, and key frames carrying an extended
      dependency descriptor, are copied to the CPU port for the agent.

    The module is configured exclusively through the table-write style API
    below, which is how the switch agent and controller drive it. *)

type t

type mode =
  | Fast  (** zero-copy: ingress view + per-replica copy-and-patch (default) *)
  | Slow  (** the record-based parse/reserialize path — the executable spec *)
  | Paranoid
      (** run both, assert byte-equality of every emitted datagram; raises
          {!Differential_mismatch} on divergence. Always on in tests. *)

exception Differential_mismatch of string
(** Paranoid mode found an egress datagram where the fast path's bytes
    differ from the slow path's. *)

val create :
  Netsim.Engine.t ->
  Netsim.Network.t ->
  ip:int ->
  ?header_auth:bool ->
  ?mode:mode ->
  ?obs_label:string ->
  unit ->
  t
(** The model charges 600 ns of pipeline latency per packet and 50 µs
    for the trip to the switch CPU; the forwarding mode defaults to
    [Fast]. The embedded {!Tofino.Pre} has the Tofino2 limits.

    [obs_label] (default ["sw0"]) names this switch in the metrics
    registry (label [switch="..."] on the [scallop_dp_*] series) and is
    forwarded to the embedded {!Tofino.Pre} instance; re-creating a
    switch under the same label replaces its registry entries rather
    than aggregating into them.

    [header_auth] enables the paper's §8 extension: recomputing an HMAC
    over the (rewritten) RTP header of every egress replica, as the paper
    argues is feasible on programmable hardware. The model charges extra
    pipeline latency and match-action resources; payloads stay opaque
    (SRTP-compatible), so nothing else changes. *)

val ip : t -> int

val obs_label : t -> string
(** The metrics-registry label this switch was created with (reused by
    {!Switch_agent} for its own per-switch series). *)

val trees : t -> Trees.t
val pre : t -> Tofino.Pre.t

val set_mode : t -> mode -> unit
(** Switching modes is safe at any quiescent point; per-leg rewriter
    state is shared by both paths, so the choice only affects how egress
    bytes are materialized. *)

(** {1 Control-plane configuration API} *)

val set_cpu_sink : t -> (Netsim.Dgram.t -> unit) -> unit
(** Where CPU-port copies go (the switch agent). *)

val inject : t -> Netsim.Dgram.t -> unit
(** Agent/controller sends a packet out through the switch. *)

type uplink = {
  sender : int;
  meeting : Trees.handle;
  video_ssrc : int;
  audio_ssrc : int;
  renditions : int array;  (** simulcast SSRCs; [| |] for plain SVC uplinks *)
  mutable feedback_dst : Scallop_util.Addr.t option;
      (** Learned from the first uplink packet: where the sender's own
          feedback (REMB/NACK/PLI towards it) must be sent. *)
}

val register_uplink :
  ?renditions:int array -> t -> port:int -> sender:int -> meeting:Trees.handle ->
  video_ssrc:int -> audio_ssrc:int -> unit

val unregister_uplink : t -> port:int -> unit
val swap_meeting_handle : t -> port:int -> Trees.handle -> unit
(** Migration step 2: repoint an uplink at a new tree set. *)

val register_leg :
  ?simulcast:int array -> t -> receiver:int -> video_ssrc:int -> audio_ssrc:int ->
  dst:Scallop_util.Addr.t -> src_port:int -> uplink_port:int ->
  rewrite:Seq_rewrite.variant option -> unit
(** One (sender stream → receiver) egress leg. [src_port] is the switch
    port the receiver believes its peer lives at; feedback arriving there
    is matched back to the sender via [uplink_port]. [rewrite] enables the
    sequence-rewriting state for rate-adapted legs.
    @raise Tofino.Table.Table_full-equivalent [Failure] when the stream
    index table is exhausted (65,536 rate-adapted streams). *)

val unregister_leg : t -> receiver:int -> video_ssrc:int -> unit

val reset : t -> unit
(** Power-cycle the match-action state: clear the uplink/egress/feedback
    tables, zero every stream-tracker cell, rewind the stream-index
    allocator. Does {e not} touch the PRE — tree teardown belongs to the
    agent's meeting records ({!Switch_agent} wipes those first). The
    crash half of the crash/resync story. *)

val set_leg_target : t -> receiver:int -> video_ssrc:int -> Av1.Dd.decode_target -> unit
(** Update the frame-skip cadence of a leg's rewriter. *)

val set_leg_rendition : t -> leg_port:int -> int -> unit
(** Simulcast: ask the leg to splice onto another rendition (takes effect
    at that rendition's next key frame). *)

val leg_rendition : t -> leg_port:int -> int option

val request_keyframe : t -> uplink_port:int -> ssrc:int -> unit
(** Send a PLI towards the sender for one of its streams — how the agent
    obtains the key frame a pending rendition switch needs. *)

val set_remb_forwarding : t -> leg_port:int -> bool -> unit
(** The agent's filter function output (paper §5.3): only the selected
    best-downlink leg forwards its REMBs to the sender. *)

(** {1 Statistics} *)

type counters = {
  mutable rtp_audio_pkts : int;
  mutable rtp_audio_bytes : int;
  mutable rtp_video_pkts : int;
  mutable rtp_video_bytes : int;
  mutable rtp_av1_ds_pkts : int;
  mutable rtp_av1_ds_bytes : int;
  mutable rtcp_sr_sdes_pkts : int;
  mutable rtcp_sr_sdes_bytes : int;
  mutable rtcp_rr_pkts : int;
  mutable rtcp_rr_bytes : int;
  mutable rtcp_remb_pkts : int;
  mutable rtcp_remb_bytes : int;
  mutable stun_pkts : int;
  mutable stun_bytes : int;
  mutable other_pkts : int;
  mutable other_bytes : int;
}

val ingress_counters : t -> counters
(** Classification of everything arriving at the switch — the Table 1
    breakdown. *)

val cpu_pkts : t -> int
val cpu_bytes : t -> int
val egress_pkts : t -> int
val egress_bytes : t -> int
val replicas_suppressed : t -> int

type fastpath_stats = {
  fp_fast_pkts : int;  (** ingress media packets forwarded via copy-and-patch *)
  fp_slow_pkts : int;
      (** ingress media packets that took the record path (Slow mode, or
          non-canonical encodings the fast path must not touch) *)
  fp_replica_copies : int;
      (** fan-out replicas materialized by the fast path (blits into
          pooled buffers) *)
  fp_paranoid_checks : int;  (** egress datagrams byte-compared across both paths *)
  fp_paranoid_mismatches : int;  (** comparisons that failed (0 or the run raised) *)
  fp_cache_hits : int;
  fp_cache_misses : int;
  fp_cache_invalidations : int;
  fp_cache_entries : int;  (** resident PRE fan-out cache entries *)
  fp_pool_live : int;  (** replica buffers currently checked out of the pool *)
  fp_pool_high_water : int;  (** peak simultaneously-live replica buffers *)
  fp_pool_recycled : int;  (** replica checkouts served from a free list *)
  fp_pool_fresh : int;  (** replica checkouts that had to allocate *)
}

val fastpath_stats : t -> fastpath_stats
(** Fast-path, PRE fan-out cache and replica-pool counters, for the
    bench, the ledger and [scallop_cli check]: a snapshot of the
    registry-backed [scallop_dp_*] series and of the
    [scallop_pre_cache_*] series under [pre="<obs_label>"], read through
    {!Scallop_obs.Metrics.read}, so take it before another data plane
    registers under the same label. *)

val pool_stats : t -> Scallop_util.Bufpool.stats
(** The replica buffer pool's full accounting (see {!Scallop_util.Bufpool}).
    After the simulation drains, [live] must be back to 0: every pooled
    replica was terminated by the network layer exactly once. *)

val alloc_budget_bytes_per_packet : int
(** Pinned steady-state allocation ceiling for the fast path, in bytes of
    minor-heap allocation per ingress packet for the canonical 30-receiver
    fan-out (replica buffers pooled, egress batches recycled). The bench's
    GC-pressure gate and the regression test both check against this one
    constant; raising it is an explicit, reviewed decision. *)

val set_egress_hook :
  t -> (receiver:int -> ssrc:int -> template:int -> size:int -> unit) -> unit
(** Per-replica observation point for Figs. 23–25. [template] is the AV1
    descriptor template id of the replica, [-1] when it carries none
    (audio, RTCP). *)

val header_auth_enabled : t -> bool
val headers_authenticated : t -> int
(** Egress replicas whose header HMAC was recomputed (0 unless
    [header_auth]). *)

val resource_program : t -> Tofino.Resources.program
(** Static description of this program for the Table 3 model. *)

val stream_index_capacity : int
(** 65,536 concurrent rate-adapted streams (paper §6.3). *)

(** {1 Introspection (read-only, for the {!Scallop_analysis} snapshot layer)}

    The uplink / egress-leg / feedback state lives in capacity-enforced
    {!Tofino.Table}s; these views expose programmed contents and occupancy
    without exposing the mutable records themselves. *)

type table_occupancy = { tbl_name : string; tbl_size : int; tbl_capacity : int }

val table_occupancy : t -> table_occupancy list
(** Size vs capacity of every match-action table (plus the stream-index
    allocator, reported in the same shape). *)

type uplink_view = {
  uv_port : int;
  uv_sender : int;
  uv_meeting : Trees.handle;
  uv_video_ssrc : int;
  uv_audio_ssrc : int;
  uv_renditions : int array;
}

val uplinks_view : t -> uplink_view list

type leg_view = {
  lv_receiver : int;
  lv_video_ssrc : int;
  lv_dst : Scallop_util.Addr.t;
  lv_src_port : int;
  lv_uplink_port : int;
  lv_stream_index : int;  (** -1 when not rate-adapted *)
  lv_forward_remb : bool;
  lv_target : Av1.Dd.decode_target;
  lv_ssrc_keys : int list;  (** every SSRC the egress table maps to this leg *)
}

val legs_view : t -> leg_view list
(** One entry per distinct leg (the egress table holds one key per SSRC of
    the leg's stream; those keys are collapsed into [lv_ssrc_keys]). *)

val feedback_view : t -> (int * int) list
(** Every feedback-table entry as [(src_port, receiver)]. *)

val stream_index_state : t -> int list * int
(** The stream-index allocator's [(free list, next fresh index)]. *)

(** Deliberate state corruption for the {!Scallop_analysis} mutation
    harness. Never used by the control path. *)
module Unsafe : sig
  val drop_feedback_entry : t -> src_port:int -> unit
  (** Delete a feedback rule behind the agent's back. *)

  val push_free_stream_index : t -> int -> unit
  (** Push a bogus index onto the allocator's free list. *)
end
