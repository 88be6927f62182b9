(** Star topology network: every host has an uplink and a downlink to a
    well-provisioned core, which is how VCA clients relate to an SFU. A
    datagram traverses the source host's uplink, then the destination
    host's downlink, then is handed to the handler bound to the
    destination address. *)

type t

val create : Engine.t -> Scallop_util.Rng.t -> t

val add_host :
  t -> ip:int -> ?uplink:Link.config -> ?downlink:Link.config -> unit -> unit
(** Hosts default to {!Link.default} in both directions. Re-adding an ip
    replaces its links. *)

val bind : t -> Scallop_util.Addr.t -> (Dgram.t -> unit) -> unit
(** Bind a handler to a UDP address. Rebinding replaces the handler. *)

val unbind : t -> Scallop_util.Addr.t -> unit

val bind_host : t -> ip:int -> (Dgram.t -> unit) -> unit
(** Wildcard bind: receives datagrams to any port of [ip] that has no
    exact {!bind}. This is how the Scallop switch ingests all traffic. *)

val send : t -> Dgram.t -> unit
(** Inject a datagram at the current engine time from [dgram.src]'s host.
    Unknown source/destination hosts or unbound destination addresses
    count as drops. *)

val uplink : t -> ip:int -> Link.t
(** @raise Not_found for unknown hosts. *)

val downlink : t -> ip:int -> Link.t
val undeliverable : t -> int
