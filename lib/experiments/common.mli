(** Shared scenario plumbing for the paper-reproduction experiments: a
    Scallop stack (data plane + switch agent + controller) and a software
    split-proxy stack, each with helpers to spin up N-party meetings of
    WebRTC clients over the simulated network. *)

type scallop_stack = {
  engine : Netsim.Engine.t;
  rng : Scallop_util.Rng.t;
  network : Netsim.Network.t;
  dp : Scallop.Dataplane.t;
  agent : Scallop.Switch_agent.t;
  controller : Scallop.Controller.t;
}

val make_scallop :
  ?seed:int ->
  ?rewrite:Scallop.Seq_rewrite.variant ->
  ?switch_link:Netsim.Link.config ->
  ?control:Scallop.Rpc_transport.config ->
  ?batch:bool ->
  unit ->
  scallop_stack
(** [control] configures the controller↔agent RPC channel (latency,
    loss, retry policy); the default ideal channel leaves every other
    experiment byte-identical to direct calls. [batch] is the
    controller's flush policy ({!Scallop.Controller.create}; default
    [true], [false] flushes every op). *)

type cluster_stack = { base : scallop_stack; cluster : Scallop.Cluster.t }
(** A scallop stack whose controller tier is the fault-tolerant
    primary/standby pair. [base.controller] is the initial primary —
    existing helpers ({!scallop_meeting}) work unchanged before the
    first failover; afterwards, route operations through
    {!Scallop.Cluster.endpoint}. *)

val make_cluster :
  ?seed:int ->
  ?rewrite:Scallop.Seq_rewrite.variant ->
  ?switch_link:Netsim.Link.config ->
  ?control:Scallop.Rpc_transport.config ->
  ?cluster_config:Scallop.Cluster.config ->
  unit ->
  cluster_stack

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
