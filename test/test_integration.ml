module Addr = Scallop_util.Addr
module Rng = Scallop_util.Rng
module Engine = Netsim.Engine
module Network = Netsim.Network

let setup () =
  let engine = Engine.create () in
  let rng = Rng.create 42 in
  let network = Network.create engine (Rng.split rng) in
  (engine, rng, network)

let add_client engine network rng ~ip =
  Network.add_host network ~ip ();
  Webrtc.Client.create engine network (Rng.split rng) (Webrtc.Client.default_config ~ip)

let scallop_three_party () =
  let engine, rng, network = setup () in
  let sfu_ip = Addr.ip_of_string "10.0.0.1" in
  Network.add_host network ~ip:sfu_ip
    ~uplink:{ Netsim.Link.default with rate_bps = infinity; propagation_ns = 100_000 }
    ~downlink:{ Netsim.Link.default with rate_bps = infinity; propagation_ns = 100_000 }
    ();
  let dp = Scallop.Dataplane.create engine network ~ip:sfu_ip () in
  let agent = Scallop.Switch_agent.create engine dp () in
  let controller = Scallop.Controller.create engine network (Rng.split rng) ~agents:[ (agent, dp) ] () in
  let mid = Scallop.Controller.create_meeting controller in
  let clients =
    List.map
      (fun i -> add_client engine network rng ~ip:(Addr.ip_of_string (Printf.sprintf "10.0.1.%d" i)))
      [ 1; 2; 3 ]
  in
  let pids = List.map (fun c -> Scallop.Controller.join controller mid c ~send_media:true) clients in
  Engine.run engine ~until:(Engine.sec 10.0);
  (* every participant must decode video from both others at ~30 fps *)
  List.iteri
    (fun i pid ->
      List.iteri
        (fun j from ->
          if i <> j then begin
            match Scallop.Controller.recv_connection controller pid ~from with
            | None -> Alcotest.failf "participant %d has no recv connection from %d" pid from
            | Some conn -> (
                match Webrtc.Client.receiver conn with
                | None -> Alcotest.fail "recv connection lacks a receiver"
                | Some rx ->
                    let decoded = Codec.Video_receiver.frames_decoded rx in
                    if decoded < 250 then
                      Alcotest.failf "participant %d decoded only %d frames from %d" pid decoded from;
                    if Codec.Video_receiver.freezes rx > 0 then
                      Alcotest.failf "participant %d froze on stream from %d" pid from)
          end)
        pids)
    pids;
  (* data-plane split sanity: most packets stayed in hardware *)
  let c = Scallop.Dataplane.ingress_counters dp in
  let dp_pkts = c.rtp_audio_pkts + c.rtp_video_pkts + c.rtcp_sr_sdes_pkts in
  let cpu_pkts = c.rtcp_rr_pkts + c.rtcp_remb_pkts + c.stun_pkts + c.rtp_av1_ds_pkts in
  let frac = float_of_int dp_pkts /. float_of_int (dp_pkts + cpu_pkts) in
  if frac < 0.90 then Alcotest.failf "only %.1f%% of packets in data plane" (100. *. frac);
  Printf.printf "data-plane fraction: %.2f%% (dp=%d cpu=%d) stun answered=%d\n"
    (100. *. frac) dp_pkts cpu_pkts
    (Scallop_obs.Metrics.read ~labels:[ ("switch", "sw0") ] "scallop_agent_stun_answered");
  (* the three layers must agree after 10 s of steady state *)
  Scallop_analysis.assert_clean ~what:"three-party steady state" controller

let sfu_three_party () =
  let engine, rng, network = setup () in
  let sfu_ip = Addr.ip_of_string "10.0.0.2" in
  Network.add_host network ~ip:sfu_ip
    ~uplink:{ Netsim.Link.default with rate_bps = infinity; propagation_ns = 100_000 }
    ~downlink:{ Netsim.Link.default with rate_bps = infinity; propagation_ns = 100_000 }
    ();
  let server = Sfu.Server.create engine network (Rng.split rng) ~ip:sfu_ip
      ~cpu:{ Netsim.Cpu_queue.default_server with cores = 8 } () in
  let meeting = Sfu.Server.create_meeting server in
  let clients =
    List.map
      (fun i -> add_client engine network rng ~ip:(Addr.ip_of_string (Printf.sprintf "10.0.2.%d" i)))
      [ 1; 2; 3 ]
  in
  let _ids = List.map (fun c -> Sfu.Server.join server ~meeting ~client:c ~send_media:true) clients in
  Engine.run engine ~until:(Engine.sec 10.0);
  if Sfu.Server.packets_processed server < 1000 then
    Alcotest.failf "software SFU processed only %d packets" (Sfu.Server.packets_processed server);
  Printf.printf "software SFU processed %d packets, %d stream legs\n"
    (Sfu.Server.packets_processed server) (Sfu.Server.out_stream_count server)

(* 7.3 faithfulness: at low load, a meeting through Scallop and the same
   meeting through the software split proxy must deliver equivalent QoE —
   the hardware redesign must not cost correctness. *)
let scallop_faithful_to_sfu () =
  let fps_through_scallop =
    let engine, rng, network = setup () in
    let sfu_ip = Addr.ip_of_string "10.0.0.1" in
    Network.add_host network ~ip:sfu_ip
      ~uplink:{ Netsim.Link.default with rate_bps = infinity; propagation_ns = 100_000 }
      ~downlink:{ Netsim.Link.default with rate_bps = infinity; propagation_ns = 100_000 }
      ();
    let dp = Scallop.Dataplane.create engine network ~ip:sfu_ip () in
    let agent = Scallop.Switch_agent.create engine dp () in
    let controller =
      Scallop.Controller.create engine network (Rng.split rng) ~agents:[ (agent, dp) ] ()
    in
    let mid = Scallop.Controller.create_meeting controller in
    let clients =
      List.init 3 (fun i ->
          add_client engine network rng ~ip:(Addr.ip_of_string (Printf.sprintf "10.0.1.%d" (i + 1))))
    in
    let pids = List.map (fun c -> Scallop.Controller.join controller mid c ~send_media:true) clients in
    Engine.run engine ~until:(Engine.sec 10.0);
    let p0 = List.hd pids and p1 = List.nth pids 1 in
    let rx =
      Scallop.Controller.recv_connection controller p0 ~from:p1
      |> Option.get |> Webrtc.Client.receiver |> Option.get
    in
    Codec.Video_receiver.frames_decoded rx
  in
  let fps_through_software =
    let engine, rng, network = setup () in
    let sfu_ip = Addr.ip_of_string "10.0.0.2" in
    Network.add_host network ~ip:sfu_ip
      ~uplink:{ Netsim.Link.default with rate_bps = infinity; propagation_ns = 100_000 }
      ~downlink:{ Netsim.Link.default with rate_bps = infinity; propagation_ns = 100_000 }
      ();
    let server =
      Sfu.Server.create engine network (Rng.split rng) ~ip:sfu_ip
        ~cpu:{ Netsim.Cpu_queue.default_server with cores = 8 } ()
    in
    let meeting = Sfu.Server.create_meeting server in
    let clients =
      List.init 3 (fun i ->
          add_client engine network rng ~ip:(Addr.ip_of_string (Printf.sprintf "10.0.2.%d" (i + 1))))
    in
    List.iter (fun c -> ignore (Sfu.Server.join server ~meeting ~client:c ~send_media:true)) clients;
    Engine.run engine ~until:(Engine.sec 10.0);
    let c0 = List.hd clients in
    let rx = List.hd (Webrtc.Client.connections c0 |> List.filter_map Webrtc.Client.receiver) in
    Codec.Video_receiver.frames_decoded rx
  in
  (* both should sit within a few frames of the nominal 300 *)
  Alcotest.(check bool) "scallop near 30 fps" true (fps_through_scallop > 280);
  Alcotest.(check bool) "software near 30 fps" true (fps_through_software > 280);
  Alcotest.(check bool) "QoE parity" true
    (abs (fps_through_scallop - fps_through_software) < 20)

let () =
  Alcotest.run "integration"
    [
      ( "three-party",
        [
          Alcotest.test_case "scallop" `Quick scallop_three_party;
          Alcotest.test_case "software sfu" `Quick sfu_three_party;
          Alcotest.test_case "faithfulness (7.3)" `Quick scallop_faithful_to_sfu;
        ] );
    ]
