(* Cascading SFUs (Appendix A): one controller, two Scallop switches, one
   meeting whose participants are split across them. The upstream switch
   forwards each sender's full-quality stream once to the downstream
   switch, which replicates and rate-adapts for its local receivers.

     dune exec examples/cascade.exe *)

module Addr = Scallop_util.Addr
module Rng = Scallop_util.Rng
module Engine = Netsim.Engine
module Network = Netsim.Network
module Link = Netsim.Link

let () =
  let engine = Engine.create () in
  let rng = Rng.create 7 in
  let network = Network.create engine (Rng.split rng) in
  let port = { Link.default with rate_bps = 100e9; propagation_ns = 1_000 } in
  let switch name ip_str =
    let ip = Addr.ip_of_string ip_str in
    Network.add_host network ~ip ~uplink:port ~downlink:port ();
    let dp = Scallop.Dataplane.create engine network ~ip ~obs_label:name () in
    let agent = Scallop.Switch_agent.create engine dp () in
    Printf.printf "switch %-6s at %s\n" name ip_str;
    (agent, dp)
  in
  let east = switch "east" "10.0.0.1" in
  let west = switch "west" "10.0.0.2" in
  let controller =
    Scallop.Controller.create engine network (Rng.split rng) ~agents:[ east; west ] ()
  in
  let meeting = Scallop.Controller.create_meeting controller in
  let join i ~home =
    let ip = Addr.ip_of_string (Printf.sprintf "10.0.9.%d" (i + 1)) in
    Network.add_host network ~ip ();
    let client =
      Webrtc.Client.create engine network (Rng.split rng) (Webrtc.Client.default_config ~ip)
    in
    Scallop.Controller.join ~home controller meeting client ~send_media:true
  in
  (* two participants on each coast *)
  let e0 = join 0 ~home:0 and _e1 = join 1 ~home:0 in
  let w0 = join 2 ~home:1 and _w1 = join 3 ~home:1 in
  Engine.run engine ~until:(Engine.sec 10.0);

  let rx pid ~from =
    Scallop.Controller.recv_connection controller pid ~from
    |> Option.get |> Webrtc.Client.receiver |> Option.get
  in
  Printf.printf "\nwest participant decoding an east sender: %d frames, %d freezes\n"
    (Codec.Video_receiver.frames_decoded (rx w0 ~from:e0))
    (Codec.Video_receiver.freezes (rx w0 ~from:e0));
  Printf.printf "east participant decoding a west sender: %d frames, %d freezes\n"
    (Codec.Video_receiver.frames_decoded (rx e0 ~from:w0))
    (Codec.Video_receiver.freezes (rx e0 ~from:w0));
  let _, dp_e = east and _, dp_w = west in
  Printf.printf
    "\neach sender's media crossed the inter-switch link exactly once:\n\
    \  east switch egress %d pkts, west switch egress %d pkts\n"
    (Scallop.Dataplane.egress_pkts dp_e)
    (Scallop.Dataplane.egress_pkts dp_w);
  let rpc_calls switch =
    Scallop_obs.Metrics.read ~labels:[ ("switch", switch) ] "scallop_agent_rpc_calls"
  in
  Printf.printf "agent RPCs: east %d, west %d (one controller drives both)\n"
    (rpc_calls "east") (rpc_calls "west")
