(* Quickstart: a three-party video conference through the Scallop SFU.

   Walks the full life of a meeting: build the simulated network, attach
   the Tofino data plane + switch agent + controller, sign three WebRTC
   clients in, run ten simulated seconds of media, and inspect what each
   participant decoded and how little the control plane had to touch.

     dune exec examples/quickstart.exe *)

module Addr = Scallop_util.Addr
module Rng = Scallop_util.Rng
module Engine = Netsim.Engine
module Network = Netsim.Network

let () =
  (* 1. Simulation fabric: a deterministic event engine and a star network. *)
  let engine = Engine.create () in
  let rng = Rng.create 2024 in
  let network = Network.create engine (Rng.split rng) in

  (* 2. The switch: a host with fast ports running the Scallop data plane,
     a switch agent on its CPU, and the (logically centralized) controller. *)
  let switch_ip = Addr.ip_of_string "10.0.0.1" in
  let port = { Netsim.Link.default with rate_bps = 100e9; propagation_ns = 1_000 } in
  Network.add_host network ~ip:switch_ip ~uplink:port ~downlink:port ();
  let dataplane = Scallop.Dataplane.create engine network ~ip:switch_ip () in
  let agent = Scallop.Switch_agent.create engine dataplane () in
  let controller =
    Scallop.Controller.create engine network (Rng.split rng) ~agents:[ (agent, dataplane) ] ()
  in

  (* 3. Three participants, each a full WebRTC endpoint on its own host. *)
  let meeting = Scallop.Controller.create_meeting controller in
  let join i =
    let ip = Addr.ip_of_string (Printf.sprintf "10.0.1.%d" (i + 1)) in
    Network.add_host network ~ip ();
    let client =
      Webrtc.Client.create engine network (Rng.split rng) (Webrtc.Client.default_config ~ip)
    in
    let pid = Scallop.Controller.join controller meeting client ~send_media:true in
    (pid, client)
  in
  let participants = List.init 3 join in

  (* 4. Run ten seconds of virtual time. *)
  Engine.run engine ~until:(Engine.sec 10.0);

  (* 5. What did everyone see? *)
  List.iter
    (fun (pid, _) ->
      List.iter
        (fun (from, _) ->
          if from <> pid then
            match Scallop.Controller.recv_connection controller pid ~from with
            | Some conn ->
                let rx = Option.get (Webrtc.Client.receiver conn) in
                Printf.printf
                  "participant %d <- participant %d: %d frames decoded, %d freezes, jitter %.2f ms\n"
                  pid from
                  (Codec.Video_receiver.frames_decoded rx)
                  (Codec.Video_receiver.freezes rx)
                  (Codec.Video_receiver.jitter_ms rx)
            | None -> ())
        participants)
    participants;
  let c = Scallop.Dataplane.ingress_counters dataplane in
  let dp = c.rtp_audio_pkts + c.rtp_video_pkts + c.rtcp_sr_sdes_pkts in
  Printf.printf
    "\ndata plane forwarded %d packets; switch agent handled %d CPU-port copies (%d STUN answered)\n"
    dp
    (Scallop.Dataplane.cpu_pkts dataplane)
    (Scallop_obs.Metrics.read ~labels:[ ("switch", "sw0") ] "scallop_agent_stun_answered");
  Printf.printf "controller exchanged %d SDP messages and made %d agent RPCs\n"
    (Scallop_obs.Metrics.read ~labels:[ ("ctrl", "ctl") ] "scallop_ctrl_sdp_messages")
    (Scallop_obs.Metrics.read ~labels:[ ("switch", "sw0") ] "scallop_agent_rpc_calls")
