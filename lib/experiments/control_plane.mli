(** Control-plane sensitivity sweep: how controller↔agent RTT and loss
    shape participant join latency.

    The paper's controller is off the media path and only acts on joins,
    leaves and stream changes (§5.1), so a degraded management network
    shows up purely as signaling latency. Each sweep point runs the same
    meeting with the control channel set to a given RTT and iid loss and
    measures per-join virtual latency plus the retry/duplicate traffic
    the {!Scallop.Rpc_transport} layer generates to stay reliable. *)

type point = {
  rtt_ms : int;
  loss : float;
  joins : int;  (** joins that completed (all of them, thanks to retries) *)
  mean_join_ms : float;
  max_join_ms : float;
  wire_requests : int;  (** request datagrams sent, retransmissions included *)
  retries : int;
  failures : int;  (** calls that exhausted every retry *)
  agent_rpc_calls : int;  (** request messages the agent saw on the wire *)
}

val compute : ?quick:bool -> unit -> point list
(** The sweep, lowest RTT and loss first. *)

val claims : point list Claim.t list
val print : point list -> unit
