module Addr = Scallop_util.Addr
module Rng = Scallop_util.Rng
module Engine = Netsim.Engine
module Network = Netsim.Network
module Link = Netsim.Link

type scallop_stack = {
  engine : Engine.t;
  rng : Rng.t;
  network : Network.t;
  dp : Scallop.Dataplane.t;
  agent : Scallop.Switch_agent.t;
  controller : Scallop.Controller.t;
}

let fast_link =
  { Link.default with rate_bps = infinity; propagation_ns = 100_000; queue_bytes = max_int / 2 }

(* Access links carry a deep (bufferbloat-style) queue: congestion shows
   up as delay first, which is exactly the signal GCC adapts on before
   tail-drop loss sets in. *)
let client_link () =
  { Link.default with rate_bps = 100e6; propagation_ns = 5_000_000; queue_bytes = 1_000_000 }

let sfu_ip = Addr.ip_of_string "10.0.0.1"

(* The world both scallop stacks share: one switch on the network, its
   agent, and a controller tier that [make_controller] builds over it.
   The rng splits in a fixed order (network, then controller), so a seed
   draws the same world whichever tier sits on top. *)
let make_world ~seed ~rewrite ~switch_link make_controller =
  (* a fresh world: stale same-key QoE collectors from a previous stack in
     this process would otherwise be reused and keep accumulating *)
  Scallop_obs.Qoe.reset ();
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let network = Network.create engine (Rng.split rng) in
  Network.add_host network ~ip:sfu_ip ~uplink:switch_link ~downlink:switch_link ();
  let dp = Scallop.Dataplane.create engine network ~ip:sfu_ip () in
  let agent = Scallop.Switch_agent.create engine dp ~rewrite () in
  let controller, tier = make_controller engine network (Rng.split rng) [ (agent, dp) ] in
  ({ engine; rng; network; dp; agent; controller }, tier)

let make_scallop ?(seed = 1) ?(rewrite = Scallop.Seq_rewrite.S_LM) ?(switch_link = fast_link)
    ?(control = Scallop.Rpc_transport.default) ?batch () =
  fst
    (make_world ~seed ~rewrite ~switch_link (fun engine network rng agents ->
         (Scallop.Controller.create engine network rng ~agents ~control ?batch (), ())))

(* A scallop stack whose controller tier is the fault-tolerant pair: an
   acting primary and a journal-tailing standby under the cluster's
   heartbeat manager. The [scallop_stack] view inside it points its
   [controller] field at the initial primary — helpers like
   [scallop_meeting] work unchanged as long as they run before the first
   failover; afterwards route ops through [Scallop.Cluster.endpoint]. *)
type cluster_stack = { base : scallop_stack; cluster : Scallop.Cluster.t }

let make_cluster ?(seed = 1) ?(rewrite = Scallop.Seq_rewrite.S_LM)
    ?(switch_link = fast_link) ?(control = Scallop.Rpc_transport.default)
    ?cluster_config () =
  let base, cluster =
    make_world ~seed ~rewrite ~switch_link (fun engine network rng agents ->
        let cluster =
          Scallop.Cluster.create ?config:cluster_config engine network rng ~agents ~control ()
        in
        (Scallop.Cluster.primary cluster, cluster))
  in
  { base; cluster }

type software_stack = {
  s_engine : Engine.t;
  s_rng : Rng.t;
  s_network : Network.t;
  server : Sfu.Server.t;
}

let make_software ?(seed = 1) ?(cpu = Netsim.Cpu_queue.default_server) ?(switch_link = fast_link)
    () =
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let network = Network.create engine (Rng.split rng) in
  Network.add_host network ~ip:sfu_ip ~uplink:switch_link ~downlink:switch_link ();
  let server = Sfu.Server.create engine network (Rng.split rng) ~ip:sfu_ip ~cpu () in
  { s_engine = engine; s_rng = rng; s_network = network; server }

let client_ip index =
  Addr.ip_of_string (Printf.sprintf "10.0.%d.%d" (1 + (index / 250)) ((index mod 250) + 1))

let add_client engine network rng ~index ?(config = Webrtc.Client.default_config)
    ?(uplink = client_link ()) ?(downlink = client_link ()) () =
  let ip = client_ip index in
  Network.add_host network ~ip ~uplink ~downlink ();
  Webrtc.Client.create engine network (Rng.split rng) (config ~ip)

let scallop_meeting stack ~participants ~senders ?config ?uplink ?downlink ?(index_base = 0) () =
  let mid = Scallop.Controller.create_meeting stack.controller in
  let members =
    List.init participants (fun i ->
        let client =
          add_client stack.engine stack.network stack.rng ~index:(index_base + i) ?config
            ?uplink ?downlink ()
        in
        let pid =
          Scallop.Controller.join stack.controller mid client ~send_media:(i < senders)
        in
        (pid, client))
  in
  (mid, members)

let software_meeting stack ~participants ~senders ?config ?uplink ?downlink ?(index_base = 0) () =
  let meeting = Sfu.Server.create_meeting stack.server in
  let members =
    List.init participants (fun i ->
        let client =
          add_client stack.s_engine stack.s_network stack.s_rng ~index:(index_base + i)
            ?config ?uplink ?downlink ()
        in
        let pid = Sfu.Server.join stack.server ~meeting ~client ~send_media:(i < senders) in
        (pid, client))
  in
  (meeting, members)

let run_for engine ~seconds =
  Engine.run engine ~until:(Engine.now engine + Engine.sec seconds)
