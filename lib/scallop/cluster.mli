(** A packaged primary/standby controller pair sharing one intent
    {!Journal}, with a heartbeat-driven failure detector.

    The cluster runs a beat timer (default every 250 ms of virtual
    time). Each beat:

    - runs the lease check ({!Controller.refresh_role}) on whichever
      instance believes it is acting, so a fenced-out primary deposes
      itself within one beat even if it never writes;
    - tails the journal on the standby ({!Controller.apply_tail}) and,
      every [compact_every] applied entries, compacts the journal from
      the standby's caught-up state ({!Controller.compact_journal});
    - counts consecutive beats with no live acting primary, and
      promotes the standby ({!Controller.promote}) after
      [promote_after] missed beats.

    {!kill_primary} and {!promote} are also directly callable — the
    bounded explorer uses them as fault-grid events ({!promote} with a
    live primary models a false-positive failure detection, the
    split-brain seed the fencing protocol must contain). *)

type config = {
  beat_every_ns : int;  (** beat interval (virtual time) *)
  promote_after : int;
      (** consecutive missed beats before the standby is promoted *)
  compact_every : int;
      (** journal entries between standby-driven compactions; 0 never
          compacts *)
}

val default : config
(** 250 ms beats, promote after 2 missed, compact every 32 entries. *)

type t

val create :
  ?config:config ->
  Netsim.Engine.t ->
  Netsim.Network.t ->
  Scallop_util.Rng.t ->
  agents:(Switch_agent.t * Dataplane.t) list ->
  ?control:Rpc_transport.config ->
  unit ->
  t
(** Build the pair: an acting primary (label ["ctl"], the default
    controller address) and a tailing standby (label ["ctl1"], its own
    address 10.255.0.2), both over a fresh shared journal, and start
    the beat timer. *)

val endpoint : t -> Controller.t
(** The instance a workload should call: the live acting primary with
    the freshest fence. Mid-failover (the acting instance dead, no
    standby promoted yet) this still returns the last instance that
    acted — callers see {!Controller.Unavailable} and retry, the
    client-library contract. *)

val standby_instance : t -> Controller.t option
(** The live tailing standby, if any. *)

val primary : t -> Controller.t
val standby : t -> Controller.t
(** The two instances by their initial role (the roles themselves
    migrate on failover). *)

val journal : t -> Controller.persisted Journal.t
val promotions : t -> int
(** Promotions performed so far (detector-driven and forced). *)

val start_health : t -> unit
(** Start the agent failure detector, with the default
    {!Controller.health_config}, on the current acting instance;
    a promotion starts it on the new primary. *)

val kill_primary : t -> unit
(** Kill the live acting instance (no-op if none). The beat timer's
    missed-beat counter then drives the standby's promotion. *)

val promote : t -> unit
(** Promote the live standby immediately, even if the primary is
    healthy — a false-positive failure detection. Fencing guarantees
    the deposed primary can commit no new intent afterwards. *)

val restart_killed : t -> unit
(** Restart any killed instance; it rejoins as a tailing standby. *)

val stop : t -> unit
(** Stop the beat timer and both instances' failure detectors. *)
