(** Behavioural model of Tofino's Packet Replication Engine (paper §6.3,
    Fig. 13).

    The PRE is a hierarchical multicast engine: a packet is steered to a
    multicast tree by its MGID; the tree's level-1 (L1) nodes each carry a
    replication id (RID) and one or more egress ports (level-2). Pruning
    happens at both levels:

    - {b L1 exclusion}: an L1 node with pruning enabled is skipped when its
      L1-XID equals the packet's L1-XID (Scallop uses this to separate the
      [m] meetings aggregated in one tree);
    - {b L2 exclusion}: a replica is suppressed when the L1 node's RID
      equals the packet's RID {e and} the egress port is in the packet's
      L2-XID port set (Scallop uses this to stop senders receiving their
      own media).

    Resource limits are enforced exactly as the paper states them: 64K
    trees, 2^24 L1 nodes PRE-wide, 64K RIDs per tree. *)

type t

type limits = { max_trees : int; max_l1_nodes : int; max_rids_per_tree : int }

val create : ?limits:limits -> ?obs_label:string -> unit -> t
(** [limits] defaults to Tofino2's: 65,536 trees, 16,777,216 L1 nodes
    and 65,536 RIDs per tree.

    [obs_label] names this instance in the metrics registry (label
    [pre="..."] on the [scallop_pre_cache_*] series); re-creating an
    instance under the same label replaces its registry entries. *)

type node_id = int
type mgid = int

exception Resource_exhausted of string

val create_l1_node :
  t -> rid:int -> ?l1_xid:int -> ?prune_enabled:bool -> ports:int list -> unit -> node_id
(** Allocates a free-standing L1 node. @raise Resource_exhausted at the
    node limit. *)

val destroy_l1_node : t -> node_id -> unit
(** The node must not be a member of any tree. *)

val create_tree : t -> mgid:mgid -> nodes:node_id list -> unit
(** @raise Resource_exhausted at the tree limit.
    @raise Invalid_argument if the MGID is in use, a node is already in a
    tree, or per-tree RID uniqueness constraints are violated. *)

val destroy_tree : t -> mgid -> unit
(** Releases the tree; its nodes become free-standing again. *)

val add_node_to_tree : t -> mgid -> node_id -> unit
val remove_node_from_tree : t -> mgid -> node_id -> unit

val set_l2_xid_ports : t -> xid:int -> ports:int list -> unit
(** Define the egress-port set an L2-XID excludes. *)

val remove_l2_xid : t -> xid:int -> unit
(** Release an L2-XID's exclusion set (participant teardown). Unknown
    XIDs are ignored. *)

type replica = { rid : int; port : int }

val replicate : t -> mgid:mgid -> l1_xid:int -> rid:int -> l2_xid:int -> replica list
(** The data-plane invocation: all surviving replicas for a packet
    carrying the given metadata. Unknown MGIDs yield []. Always computed
    fresh — this is the executable spec that {!replicate_cached} and the
    analysis layer check against. *)

val replicate_cached : t -> mgid:mgid -> l1_xid:int -> rid:int -> l2_xid:int -> replica array
(** Memoized {!replicate}, returned as a flat array keyed by the full
    [(mgid, l1_xid, rid, l2_xid)] metadata tuple. Every tree/node/L2-XID
    mutation flushes the whole memo table, so a served entry is always
    equal to what {!replicate} would compute. Callers must not mutate the
    returned array. The memo counts into the [scallop_pre_cache_hits],
    [_misses] and [_invalidations] (flushes that dropped entries)
    counters and the [_entries] (resident) callback, read through
    {!Scallop_obs.Metrics.read}. *)

val cache_hit_count : t -> int
(** Just the hit counter — cheap enough for the data plane to read
    before/after one {!replicate_cached} call when stamping a trace
    event with hit/miss. *)

val iter_cache :
  t ->
  (mgid:mgid -> l1_xid:int -> rid:int -> l2_xid:int -> replicas:replica array -> unit) ->
  unit
(** Visit every resident fan-out cache entry (for the analysis layer's
    staleness re-audit). Read-only: the callback must not mutate the
    PRE. *)

(** Introspection / resource accounting *)

val trees_used : t -> int
val l1_nodes_used : t -> int
val limits : t -> limits
val tree_nodes : t -> mgid -> node_id list
val node_rid : t -> node_id -> int
val node_ports : t -> node_id -> int list
val node_l1_xid : t -> node_id -> int
val node_prune_enabled : t -> node_id -> bool

val node_tree : t -> node_id -> mgid option
(** The tree a node is a member of, if any ([None] = free-standing). *)

val iter_trees : t -> (mgid:mgid -> nodes:node_id list -> unit) -> unit
(** Visit every programmed tree with its member nodes, in an unspecified
    order. Read-only: the callback must not mutate the PRE. *)

val iter_nodes : t -> (node_id -> unit) -> unit
(** Visit every allocated L1 node (tree members and free-standing alike).
    Read-only: the callback must not mutate the PRE. *)

val iter_l2_xids : t -> (xid:int -> ports:int list -> unit) -> unit
(** Visit every programmed L2-XID exclusion set. Read-only. *)

(** Deliberate state corruption for the analysis-layer mutation harness
    ({!Scallop_analysis}) and fault-injection tests. Never called by the
    production control path: each entry point violates an invariant the
    normal API enforces. *)
module Unsafe : sig
  val set_node_rid : t -> node_id -> int -> unit
  (** Rewrite a node's RID in place, bypassing per-tree uniqueness. *)

  val drop_tree_record : t -> mgid -> unit
  (** Forget a tree without detaching its nodes — leaves every member
      pointing at a dangling MGID. *)

  val poison_cache :
    t -> mgid:mgid -> l1_xid:int -> rid:int -> l2_xid:int -> replicas:replica list -> unit
  (** Plant a fan-out cache entry that was never computed from the live
      trees — a stale entry the invalidation discipline should have made
      impossible. *)
end
