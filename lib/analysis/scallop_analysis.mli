(** Static data-plane state verifier.

    Scallop's session state lives in three places that must agree: the
    controller's intent (what it believes it has programmed), each switch
    agent's shadow (meetings, streams, legs), and the data-plane ground
    truth (uplink/egress/feedback tables, PRE trees and exclusion sets).
    The RPC control plane retries and replays, so a lost or misapplied
    update leaves the layers {e silently} inconsistent — media just stops
    flowing, or flows to the wrong port.

    This module takes a typed snapshot of all three layers and statically
    checks the invariants that hold at every quiescent point:

    - per-tree RID uniqueness, node/tree membership consistency, and no
      leaked (orphan) L1 nodes after teardown paths;
    - L1/L2 exclusion consistency: every packet's self-prune L2-XID covers
      the sender's own egress port, exclusion sets are non-empty, subsets
      of the tree egress ports, and in sync with the tree layer's
      reference counts;
    - behavioural reachability: for every uplink, routing metadata through
      the PRE ([route_media] → [replicate] → [receiver_of_replica])
      delivers exactly one replica to every receiving member, none to the
      sender, and every replica lands on a live egress leg;
    - feedback rules point at live legs and vice versa;
    - match-action table occupancy within capacity, the stream-index
      allocator free of double-allocation/double-free;
    - a resource re-audit of the rebuilt {!Tofino.Resources.program}
      against the Tofino2 budget (stages, SRAM, PHV, VLIW, parser depth);
    - PRE fan-out cache coherence: every resident memo entry is
      re-derived from the live trees and must match exactly;
    - cross-layer diff: controller intent ≡ agent shadow ≡ data-plane
      ground truth, membership, uplinks and relay receivers included.

    Violations are structured {!finding}s, never exceptions, so a check
    over corrupted state reports {e every} problem at once. *)

(** {1 Findings} *)

type severity = Error | Warning

type layer = Controller | Agent | Dataplane | Pre | Resources
(** Which layer's state a finding is about. *)

type kind =
  | Duplicate_rid  (** two L1 nodes of one tree share a RID *)
  | Orphan_l1_node  (** allocated L1 node owned by no meeting — a leak *)
  | Dangling_tree_node  (** node/tree membership records disagree *)
  | Self_prune_mismatch  (** a sender would receive its own media *)
  | Xid_ports_invalid  (** L2 exclusion sets malformed or untracked *)
  | Unreachable_leg  (** a receiving member gets no replica / has no leg *)
  | Orphan_replica  (** a replica or leg no receiving member accounts for *)
  | Dangling_feedback  (** feedback rule and egress leg out of sync *)
  | Table_overflow  (** match-action table over (or near) capacity *)
  | Stream_index_corrupt  (** stream-index allocator double-free/use *)
  | Resource_budget  (** PRE or Tofino2 chip budget exceeded *)
  | Stale_pre_cache
      (** a resident PRE fan-out cache entry disagrees with what
          {!Tofino.Pre.replicate} computes from the live trees — the
          flush-on-mutation discipline was bypassed *)
  | Intent_drift  (** controller intent vs agent shadow mismatch *)
  | Shadow_drift  (** agent shadow vs data-plane ground truth mismatch *)
  | Split_brain
      (** two live controller instances both hold the Acting role — the
          fencing protocol failed to depose the old primary *)
  | Journal_drift
      (** a standby that has applied every journal entry does not
          reproduce the acting primary's intent — the write-ahead log is
          not a faithful record of the mutations it claims to cover *)

type finding = {
  severity : severity;
  layer : layer;
  kind : kind;
  subject : string;  (** e.g. ["sw0/uplink:40001"] *)
  explanation : string;
  trace_ids : int list;
      (** causal trace ids of packets that exercised the faulty state
          (see {!Scallop_obs.Trace.timeline}); [[]] when tracing was off
          or no traced packet touched it. Currently populated for
          {!Stale_pre_cache}: every traced packet whose fan-out was
          served from the stale entry. *)
}

val severity_name : severity -> string
val layer_name : layer -> string
val kind_name : kind -> string

val pp_finding : Format.formatter -> finding -> unit

val report : finding list -> string
(** One pretty-printed finding per line. *)

val errors : finding list -> finding list
(** Just the [Error]-severity findings (the nonzero-exit set). *)

(** {1 Snapshots}

    Snapshot records are plain data so tests (and the mutation harness)
    can rebuild them with seeded corruption; the live [Trees.t] / [Pre.t]
    handles ride along for the behavioural replication checks. Taking a
    snapshot never mutates any layer. *)

type pre_node = {
  pn_id : Tofino.Pre.node_id;
  pn_rid : int;
  pn_l1_xid : int;
  pn_prune : bool;
  pn_ports : int list;
  pn_tree : Tofino.Pre.mgid option;
}

type pre_tree = { pt_mgid : Tofino.Pre.mgid; pt_nodes : Tofino.Pre.node_id list }

type pre_state = {
  ps_nodes : pre_node list;  (** sorted by node id *)
  ps_trees : pre_tree list;  (** sorted by MGID *)
  ps_l2_xids : (int * int list) list;
  ps_limits : Tofino.Pre.limits;
}

type switch_snapshot = {
  sw_index : int;
  sw_agent_meetings : Scallop.Switch_agent.meeting_view list;
  sw_uplinks : Scallop.Dataplane.uplink_view list;
  sw_legs : Scallop.Dataplane.leg_view list;
  sw_feedback : (int * int) list;
  sw_tables : Scallop.Dataplane.table_occupancy list;
  sw_stream_free : int list;
  sw_stream_next : int;
  sw_l2_refs : (int * int) list;
  sw_pre_state : pre_state;
  sw_program : Tofino.Resources.program;
  sw_trees : Scallop.Trees.t;  (** live, for behavioural checks *)
  sw_pre : Tofino.Pre.t;  (** live, for behavioural checks *)
}

type t = {
  snap_intent : Scallop.Controller.intent;
  snap_switches : switch_snapshot list;
}

val snapshot : Scallop.Controller.t -> t
(** Capture controller intent plus a per-switch snapshot of every agent
    and data plane the controller manages. *)

(** {1 Checking} *)

val state_hash : t -> int
(** Structural hash of the snapshot's pure-data projection (controller
    intent, agent shadows, data-plane tables and PRE state; live handles
    excluded). Schedules that converge to identical three-layer state
    hash equal — the key for {!Scallop_mc}'s state-dedup pruning. *)

val check : ?totals:Tofino.Resources.totals -> t -> finding list
(** Run every invariant over the snapshot. [totals] overrides the chip
    budget for the resource re-audit (default {!Tofino.Resources.tofino2});
    the mutation harness passes shrunken budgets to force findings. *)

val verify : ?totals:Tofino.Resources.totals -> Scallop.Controller.t -> finding list
(** [check] of a fresh [snapshot]. *)

val assert_clean : ?what:string -> Scallop.Controller.t -> unit
(** Verify and raise [Failure] with the pretty-printed error findings if
    any invariant is violated — the one-liner for tests and experiment
    quiescent points. *)

(** {1 Anti-entropy}

    Checking is free of side effects; {!reconcile} is the active
    counterpart, pairing the verifier with the controller's
    {!Scallop.Controller.resync_switch} repair primitive. Switches the
    failure detector currently marks Dead are exempt both from
    intent-coupled checks (their drift is the failure model working —
    the data plane keeps forwarding last-known state while ops queue)
    and from repair (they are unreachable; their heal path replays
    intent anyway). *)

type repair_report = {
  rr_before : finding list;  (** what the first verification found *)
  rr_repairs : (int * int option) list;
      (** (switch, RPCs issued) per resync; [None] when the switch went
          Dead mid-replay *)
  rr_after : finding list;  (** the re-verification after repairs *)
}

val reconcile :
  ?totals:Tofino.Resources.totals -> Scallop.Controller.t -> repair_report
(** Verify; resync every reachable switch implicated in an error finding
    (subjects of the form ["sw<idx>/..."]) from controller intent;
    verify again. With no error findings (or none naming a reachable
    switch) nothing is repaired and [rr_after == rr_before]. *)

(** {1 Controller cluster invariants} *)

val check_cluster : Scallop.Cluster.t -> finding list
(** Check the controller tier's fault-tolerance invariants at a
    quiescent point: at most one live acting primary
    ({!Split_brain}), and journal-replay fidelity — the standby is
    tailed to the journal head ({!Scallop.Controller.apply_tail}, the
    one mutation this check performs) and its
    {!Scallop.Controller.intent_fingerprint} must match the acting
    primary's ({!Journal_drift}). The lease check
    ({!Scallop.Controller.refresh_role}) runs first on every acting
    instance, so a fenced-out primary that never wrote after its
    deposition is not miscounted. *)
