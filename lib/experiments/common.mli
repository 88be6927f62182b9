(** Shared scenario plumbing: every Scallop world (switches, each a data
    plane with its agent, under a controller tier) and the software
    split-proxy stack are built here, each with helpers to spin up N-party
    meetings of WebRTC clients over the simulated network. *)

type agent_switches = { rewriting_enabled : bool; feedback_filter : bool }
(** The switch agent's two ablation switches
    ({!Scallop.Switch_agent.create}); both [true] is the paper's design. *)

type scallop_stack = {
  engine : Netsim.Engine.t;
  rng : Scallop_util.Rng.t;
  network : Netsim.Network.t;
  dp : Scallop.Dataplane.t;  (** switch 0's data plane *)
  agent : Scallop.Switch_agent.t;  (** switch 0's agent *)
  controller : Scallop.Controller.t;
      (** the single controller, or the pair's initial primary: reach the
          tier through {!endpoint} once a failover may have happened *)
  cluster : Scallop.Cluster.t option;
      (** [Some] when the controller tier is the primary/standby pair *)
}

val make_scallop :
  ?seed:int ->
  ?switches:int ->
  ?agent:agent_switches ->
  ?switch_link:Netsim.Link.config ->
  ?control:Scallop.Rpc_transport.config ->
  ?batch:bool ->
  ?pair:Scallop.Cluster.config ->
  unit ->
  scallop_stack
(** The only builder of a Scallop world: [switches] (default 1) switches,
    switch [i] at 10.0.0.(i+1) with metrics label ["sw<i>"] on
    [switch_link] (default {!fast_link}), each with its data plane and
    agent, under one controller tier that reaches every agent. The tier
    is a single controller, or with [pair] the fault-tolerant
    primary/standby {!Scallop.Cluster} built with that config. [control]
    configures the controller↔agent RPC channel (latency, loss, retry
    policy); the default is ideal. [batch] is the single controller's
    flush policy ({!Scallop.Controller.create}; default [true], [false]
    flushes every op). *)

(** {2 The controller tier}

    Callers reach the tier through these four functions, whichever tier
    the stack was built with. *)

val endpoint : scallop_stack -> Scallop.Controller.t
(** The controller to call: the single controller, or the pair's live
    acting primary ({!Scallop.Cluster.endpoint}). *)

val start_health : scallop_stack -> unit
(** Start the agent failure detector on the tier. *)

val stop_health : scallop_stack -> unit
(** Stop the failure detectors; for the pair, its beat timer too
    ({!Scallop.Cluster.stop}). *)

val verify : scallop_stack -> Scallop_analysis.finding list
(** {!Scallop_analysis.verify} against {!endpoint}, plus
    {!Scallop_analysis.check_cluster} for the pair. *)

val rpc_sum : scallop_stack -> string -> int
(** [rpc_sum stack what]: the [scallop_rpc_<what>] counter summed over
    the single controller's per-switch clients ([client="sw<i>"]), e.g.
    ["wire_requests"] for every request datagram it put on the control
    links. Read it before another world is built. *)

type software_stack = {
  s_engine : Netsim.Engine.t;
  s_rng : Scallop_util.Rng.t;
  s_network : Netsim.Network.t;
  server : Sfu.Server.t;
}

val make_software :
  ?seed:int ->
  ?cpu:Netsim.Cpu_queue.config ->
  ?switch_link:Netsim.Link.config ->
  unit ->
  software_stack

val fast_link : Netsim.Link.config
(** Effectively unconstrained: infinite rate, 100 µs propagation. *)

val client_link : unit -> Netsim.Link.config
(** 100 Mb/s, 5 ms propagation, 1 MB queue. *)

val add_client :
  Netsim.Engine.t ->
  Netsim.Network.t ->
  Scallop_util.Rng.t ->
  index:int ->
  ?config:(ip:int -> Webrtc.Client.config) ->
  ?uplink:Netsim.Link.config ->
  ?downlink:Netsim.Link.config ->
  unit ->
  Webrtc.Client.t
(** Registers host 10.0.(1+index/250).(index mod 250 + 1). *)

val client_ip : int -> int

val scallop_meeting :
  scallop_stack ->
  participants:int ->
  senders:int ->
  ?config:(ip:int -> Webrtc.Client.config) ->
  ?uplink:Netsim.Link.config ->
  ?downlink:Netsim.Link.config ->
  ?index_base:int ->
  unit ->
  Scallop.Controller.meeting_id * (Scallop.Controller.participant_id * Webrtc.Client.t) list
(** The first [senders] participants send video+audio; the rest receive
    only. *)

val software_meeting :
  software_stack ->
  participants:int ->
  senders:int ->
  ?config:(ip:int -> Webrtc.Client.config) ->
  ?uplink:Netsim.Link.config ->
  ?downlink:Netsim.Link.config ->
  ?index_base:int ->
  unit ->
  Sfu.Server.meeting_id * (Sfu.Server.participant_id * Webrtc.Client.t) list

val run_for : Netsim.Engine.t -> seconds:float -> unit
