module Addr = Scallop_util.Addr
module Rng = Scallop_util.Rng
module Engine = Netsim.Engine
module Network = Netsim.Network
module Link = Netsim.Link

type agent_switches = { rewriting_enabled : bool; feedback_filter : bool }

type scallop_stack = {
  engine : Engine.t;
  rng : Rng.t;
  network : Network.t;
  dp : Scallop.Dataplane.t;
  agent : Scallop.Switch_agent.t;
  controller : Scallop.Controller.t;
  cluster : Scallop.Cluster.t option;
}

let fast_link =
  { Link.default with rate_bps = infinity; propagation_ns = 100_000; queue_bytes = max_int / 2 }

(* Access links carry a deep (bufferbloat-style) queue: congestion shows
   up as delay first, which is exactly the signal GCC adapts on before
   tail-drop loss sets in. *)
let client_link () =
  { Link.default with rate_bps = 100e6; propagation_ns = 5_000_000; queue_bytes = 1_000_000 }

let sfu_ip = Addr.ip_of_string "10.0.0.1"

(* The one Scallop world: switch i at 10.0.0.(i+1) on [switch_link],
   each agent built in index order, under a controller tier that reaches
   every agent. The rng splits in a fixed order (network, then controller
   tier, then clients), so a seed draws the same world whichever tier
   sits on top. *)
let make_scallop ?(seed = 1) ?(switches = 1)
    ?agent:(agent_switches = { rewriting_enabled = true; feedback_filter = true })
    ?(switch_link = fast_link) ?(control = Scallop.Rpc_transport.default) ?batch ?pair
    () =
  (* a fresh world: stale same-key QoE collectors from a previous stack in
     this process would otherwise be reused and keep accumulating *)
  Scallop_obs.Qoe.reset ();
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let network = Network.create engine (Rng.split rng) in
  let agents =
    List.init switches (fun i ->
        let ip = Addr.ip_of_string (Printf.sprintf "10.0.0.%d" (i + 1)) in
        Network.add_host network ~ip ~uplink:switch_link ~downlink:switch_link ();
        let dp =
          Scallop.Dataplane.create engine network ~ip ~obs_label:(Printf.sprintf "sw%d" i) ()
        in
        ( Scallop.Switch_agent.create engine dp
            ~rewriting_enabled:agent_switches.rewriting_enabled
            ~feedback_filter:agent_switches.feedback_filter (),
          dp ))
  in
  let agent, dp = List.hd agents in
  let controller, cluster =
    match pair with
    | None ->
        (Scallop.Controller.create engine network (Rng.split rng) ~agents ~control ?batch (), None)
    | Some config ->
        let cl = Scallop.Cluster.create ~config engine network (Rng.split rng) ~agents ~control () in
        (Scallop.Cluster.primary cl, Some cl)
  in
  { engine; rng; network; dp; agent; controller; cluster }

let endpoint s =
  match s.cluster with Some cl -> Scallop.Cluster.endpoint cl | None -> s.controller

let start_health s =
  match s.cluster with
  | Some cl -> Scallop.Cluster.start_health cl
  | None -> Scallop.Controller.start_health s.controller

let stop_health s =
  match s.cluster with
  | Some cl -> Scallop.Cluster.stop cl
  | None -> Scallop.Controller.stop_health s.controller

let verify s =
  Scallop_analysis.verify (endpoint s)
  @ match s.cluster with Some cl -> Scallop_analysis.check_cluster cl | None -> []

let rpc_sum s what =
  List.init (Scallop.Controller.switch_count s.controller) (fun i ->
      Scallop_obs.Metrics.read
        ~labels:[ ("client", Printf.sprintf "sw%d" i) ]
        ("scallop_rpc_" ^ what))
  |> List.fold_left ( + ) 0

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
