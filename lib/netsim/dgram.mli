(** UDP-like datagrams — the unit the simulated network carries. The
    payload is opaque wire bytes; protocol layers above parse them. *)

type t = {
  src : Scallop_util.Addr.t;
  dst : Scallop_util.Addr.t;
  payload : bytes;
  trace : int;
      (** Per-packet trace id from {!Scallop_obs.Trace.next_packet_id};
          [-1] = untraced. Observability metadata only — it rides along
          with the datagram so links and receivers can stamp causal
          events, and is never part of the simulated wire bytes. *)
  pool : Scallop_util.Bufpool.t option;
      (** [Some p] when [payload] was checked out of buffer pool [p]
          (fan-out replicas on the data plane's fast path). The network
          layer calls {!release} at the point the datagram's life ends —
          link drop, undeliverable destination, or after the bound
          handler has consumed it — recycling the bytes. A handler that
          wants to {e retain} the payload past its own return must copy
          it. [None] (ordinary GC-owned payload) everywhere else. *)
}

val v :
  ?trace:int ->
  ?pool:Scallop_util.Bufpool.t ->
  src:Scallop_util.Addr.t ->
  dst:Scallop_util.Addr.t ->
  bytes ->
  t

val release : t -> unit
(** Return a pooled payload to its pool; no-op for [pool = None]. Called
    exactly once, by whoever terminates the datagram (the network layer
    on the delivery/drop paths). *)

val wire_size : t -> int
(** Payload plus the 42-byte Ethernet+IPv4+UDP overhead — what links and
    throughput accounting charge for. *)

