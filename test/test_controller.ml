(* Controller (signaling) unit tests: session bookkeeping, SDP volumes,
   SSRC allocation, topology of the created connections. *)

module Addr = Scallop_util.Addr
module Rng = Scallop_util.Rng
module Engine = Netsim.Engine
module Network = Netsim.Network
module Link = Netsim.Link
module C = Scallop.Controller

let fast = { Link.default with rate_bps = infinity; propagation_ns = 100_000 }

let make ?(switches = 1) () =
  let engine = Engine.create () in
  let rng = Rng.create 10 in
  let network = Network.create engine (Rng.split rng) in
  let agents =
    List.init switches (fun i ->
        let ip = Addr.ip_of_string (Printf.sprintf "10.0.0.%d" (i + 1)) in
        Network.add_host network ~ip ~uplink:fast ~downlink:fast ();
        let dp = Scallop.Dataplane.create engine network ~ip () in
        (Scallop.Switch_agent.create engine dp (), dp))
  in
  let controller = C.create engine network (Rng.split rng) ~agents () in
  (engine, network, rng, controller)

let client engine network rng i =
  let ip = Addr.ip_of_string (Printf.sprintf "10.0.7.%d" (i + 1)) in
  Network.add_host network ~ip ();
  Webrtc.Client.create engine network (Rng.split rng) (Webrtc.Client.default_config ~ip)

let join_n controller engine network rng n =
  let mid = C.create_meeting controller in
  (mid, List.init n (fun i -> C.join controller mid (client engine network rng i) ~send_media:true))

let membership_tracked () =
  let engine, network, rng, controller = make () in
  let mid, pids = join_n controller engine network rng 3 in
  Alcotest.(check int) "three members" 3 (List.length (C.meeting_participants controller mid));
  C.leave controller (List.hd pids);
  Alcotest.(check int) "two after leave" 2 (List.length (C.meeting_participants controller mid));
  Alcotest.(check bool) "leaver gone" false
    (List.mem (List.hd pids) (C.meeting_participants controller mid))

let sdp_volume () =
  (* joiner #k sends 2 SDP messages for its own uplink and 2 per leg; legs
     are created in both directions towards each existing sender *)
  let engine, network, rng, controller = make () in
  let before k =
    let _ = join_n controller engine network rng k in
    Scallop_obs.Metrics.read ~labels:[ ("ctrl", "ctl") ] "scallop_ctrl_sdp_messages"
  in
  let total = before 3 in
  (* p0: 2 (uplink). p1: 2 + 2 legs x 2 = 6. p2: 2 + 4 legs x 2 = 10. *)
  Alcotest.(check int) "sdp messages" 18 total

let ssrc_allocation_unique () =
  let engine, network, rng, controller = make () in
  let _, pids = join_n controller engine network rng 4 in
  let infos = List.filter_map (C.participant_sender_info controller) pids in
  let ssrcs =
    List.concat_map (fun (i : C.sender_info) -> [ i.video_ssrc; i.audio_ssrc ]) infos
  in
  Alcotest.(check int) "all distinct" (List.length ssrcs)
    (List.length (List.sort_uniq compare ssrcs))

let recv_topology_full_mesh () =
  let engine, network, rng, controller = make () in
  let _, pids = join_n controller engine network rng 4 in
  List.iter
    (fun p ->
      List.iter
        (fun q ->
          let conn = C.recv_connection controller p ~from:q in
          if p = q then Alcotest.(check bool) "no self stream" true (conn = None)
          else Alcotest.(check bool) "full mesh" true (conn <> None))
        pids)
    pids

let receive_only_has_no_sender_info () =
  let engine, network, rng, controller = make () in
  let mid = C.create_meeting controller in
  let watcher = C.join controller mid (client engine network rng 0) ~send_media:false in
  Alcotest.(check bool) "no sender info" true
    (C.participant_sender_info controller watcher = None);
  Alcotest.(check bool) "no send connection" true (C.send_connection controller watcher = None)

let home_validation () =
  let engine, network, rng, controller = make ~switches:2 () in
  let mid = C.create_meeting controller in
  Alcotest.(check bool) "bad home rejected" true
    (try
       ignore (C.join ~home:7 controller mid (client engine network rng 0) ~send_media:true);
       false
     with Invalid_argument _ -> true);
  let p = C.join ~home:1 controller mid (client engine network rng 1) ~send_media:true in
  Alcotest.(check int) "home recorded" 1 (C.participant_home controller p)

let placement_round_robin () =
  let _, _, _, controller = make ~switches:3 () in
  let homes =
    List.init 6 (fun _ ->
        Scallop.Dataplane.ip (C.meeting_switch controller (C.create_meeting controller)))
  in
  Alcotest.(check int) "cycles through all three" 3
    (List.length (List.sort_uniq compare homes));
  Alcotest.(check bool) "wraps" true (List.nth homes 0 = List.nth homes 3)

let screen_share_bookkeeping () =
  let engine, network, rng, controller = make () in
  let _, pids = join_n controller engine network rng 2 in
  let sharer = List.hd pids and viewer = List.nth pids 1 in
  C.start_screen_share controller sharer;
  Alcotest.(check bool) "viewer has screen conn" true
    (C.screen_connection controller viewer ~from:sharer <> None);
  Alcotest.(check bool) "sharer has none of its own" true
    (C.screen_connection controller sharer ~from:sharer = None);
  Alcotest.(check bool) "double share rejected" true
    (try
       C.start_screen_share controller sharer;
       false
     with Invalid_argument _ -> true);
  C.stop_screen_share controller sharer;
  Alcotest.(check bool) "stopped" true (C.screen_connection controller viewer ~from:sharer = None);
  (* idempotent stop *)
  C.stop_screen_share controller sharer

let leave_closes_peer_connections () =
  let engine, network, rng, controller = make () in
  let engine_run s = Engine.run engine ~until:(Engine.now engine + Engine.sec s) in
  let mid = C.create_meeting controller in
  let c0 = client engine network rng 0 and c1 = client engine network rng 1 in
  let p0 = C.join controller mid c0 ~send_media:true in
  let _p1 = C.join controller mid c1 ~send_media:true in
  engine_run 2.0;
  let conns_before = List.length (Webrtc.Client.connections c1) in
  C.leave controller p0;
  Alcotest.(check bool) "peer's recv connection closed" true
    (List.length (Webrtc.Client.connections c1) < conns_before)

let () =
  Alcotest.run "controller"
    [
      ( "sessions",
        [
          Alcotest.test_case "membership" `Quick membership_tracked;
          Alcotest.test_case "sdp volume" `Quick sdp_volume;
          Alcotest.test_case "ssrc allocation" `Quick ssrc_allocation_unique;
          Alcotest.test_case "full-mesh topology" `Quick recv_topology_full_mesh;
          Alcotest.test_case "receive-only" `Quick receive_only_has_no_sender_info;
          Alcotest.test_case "leave closes connections" `Quick leave_closes_peer_connections;
        ] );
      ( "placement",
        [
          Alcotest.test_case "home validation" `Quick home_validation;
          Alcotest.test_case "round robin" `Quick placement_round_robin;
        ] );
      ( "screen share",
        [ Alcotest.test_case "bookkeeping" `Quick screen_share_bookkeeping ] );
    ]
