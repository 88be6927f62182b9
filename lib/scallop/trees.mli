(** Replication-tree construction for the Tofino PRE (paper §6.1, Fig. 11).

    Four designs, trading replication-engine resources against rate-
    adaptation granularity:

    - {b Two_party}: no tree at all; the single peer's media is unicast.
    - {b Nra} (non-rate-adapted): one tree per [m = 2] meetings; one L1
      node per participant, tagged with its meeting's L1-XID so packets of
      one meeting prune the other's branches; senders are suppressed from
      their own traffic by L2 (RID, egress-port) exclusion.
    - {b Ra_r} (receiver-specific rate adaptation): [q = 3] trees per
      [m = 2] meetings, one per quality. A packet is steered to the tree
      of {e its own} temporal layer; a receiver's node is a member of
      exactly the trees at or below the receiver's decode target, so layer
      suppression happens by tree membership.
    - {b Ra_sr} (sender-receiver-specific): per meeting, senders are
      paired; each pair gets [q] trees holding one L1 node per
      (sender, receiver) with the sender's tag as L1-XID.

    The module also implements the paper's disruption-free migration:
    build the new design's trees, flip the routing metadata, then free the
    old trees. *)

type t

type design = Two_party | Nra | Ra_r | Ra_sr

val create : Tofino.Pre.t -> t

type handle
(** One registered meeting. *)

exception Capacity of string
(** Raised when the PRE cannot fit the requested design
    (wraps {!Tofino.Pre.Resource_exhausted}). *)

val register_meeting :
  t -> design -> participants:(int * int) list -> senders:int list -> handle
(** [register_meeting t design ~participants ~senders] with
    [participants = (participant_id, egress_port) list]. Two_party
    requires exactly two participants. *)

val unregister_meeting : t -> handle -> unit

val design_of : handle -> design

val add_participant : t -> handle -> int * int -> sends:bool -> unit
val remove_participant : t -> handle -> int -> unit

val set_receiver_target :
  t -> handle -> receiver:int -> Av1.Dd.decode_target -> unit
(** Receiver-specific target (Ra_r semantics). In Ra_sr, applies the
    target to this receiver across all senders. *)

val set_pair_target :
  t -> handle -> sender:int -> receiver:int -> Av1.Dd.decode_target -> unit
(** Sender-specific target; only meaningful under Ra_sr.
    @raise Invalid_argument under other designs. *)

val migrate : t -> handle -> design -> handle
(** Paper's three-step migration: the returned handle replaces the old
    one; media routed during the call never sees a missing tree. *)

type route =
  | Unicast of { port : int; receiver : int }
  | Replicate of { mgid : int; l1_xid : int; rid : int; l2_xid : int }
  | No_receivers

val route_media :
  t -> handle -> sender:int -> layer:Av1.Dd.temporal_layer -> route
(** The PRE invocation metadata for a media packet of [layer] from
    [sender] (paper: assigned in the ingress pipeline). *)

val receiver_of_replica : t -> handle -> mgid:int -> rid:int -> int
(** Egress-side lookup: which participant a replica addresses, or [-1]
    when it addresses none (participant ids are non-negative). Allocates
    nothing: it runs once per replica. *)

val participants : handle -> (int * int) list

(** {1 Introspection (read-only, for the {!Scallop_analysis} snapshot layer)} *)

val handle_id : handle -> int
(** Stable identifier of this registration; a data-plane uplink's
    [meeting] handle can be matched against the agent's by id. *)

type node_binding = {
  nb_node : Tofino.Pre.node_id;
  nb_receiver : int;
  nb_sender : int option;  (** [Some s] only under Ra_sr *)
  nb_quality : int;
}

val node_bindings : handle -> node_binding list
(** Every L1 node this meeting owns, with the (sender,) receiver and
    quality tree it was built for. Empty for Two_party. *)

val l2_xid_refs : t -> (int * int) list
(** Programmed L2-XIDs with their reference counts (one per live
    participant registration excluding on that port). *)
