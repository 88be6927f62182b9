(* Scallop system tests: the controller/agent/data-plane stack end to end,
   including the feedback-isolation property of §5.3 and the migration
   machinery of §6.1. *)

module Addr = Scallop_util.Addr
module Rng = Scallop_util.Rng
module Engine = Netsim.Engine
module Network = Netsim.Network
module Link = Netsim.Link
module Dd = Av1.Dd

let fast = { Link.default with rate_bps = infinity; propagation_ns = 100_000 }

type stack = {
  engine : Engine.t;
  rng : Rng.t;
  network : Network.t;
  dp : Scallop.Dataplane.t;
  agent : Scallop.Switch_agent.t;
  controller : Scallop.Controller.t;
}

let make ?(seed = 1) () =
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let network = Network.create engine (Rng.split rng) in
  let sfu_ip = Addr.ip_of_string "10.0.0.1" in
  Network.add_host network ~ip:sfu_ip ~uplink:fast ~downlink:fast ();
  let dp = Scallop.Dataplane.create engine network ~ip:sfu_ip () in
  let agent = Scallop.Switch_agent.create engine dp () in
  let controller =
    Scallop.Controller.create engine network (Rng.split rng) ~agents:[ (agent, dp) ] ()
  in
  { engine; rng; network; dp; agent; controller }

let add_client st ~index ?(uplink = Link.default) ?(downlink = Link.default) () =
  let ip = Addr.ip_of_string (Printf.sprintf "10.0.1.%d" (index + 1)) in
  Network.add_host st.network ~ip ~uplink ~downlink ();
  Webrtc.Client.create st.engine st.network (Rng.split st.rng)
    (Webrtc.Client.default_config ~ip)

let receiver_of st pid ~from =
  Scallop.Controller.recv_connection st.controller pid ~from
  |> Option.get |> Webrtc.Client.receiver |> Option.get

(* a [make] world's agent counter; read it before building the next world *)
let agent_count what =
  Scallop_obs.Metrics.read ~labels:[ ("switch", "sw0") ] ("scallop_agent_" ^ what)

let run st s = Engine.run st.engine ~until:(Engine.now st.engine + Engine.sec s)

let meeting st n =
  let mid = Scallop.Controller.create_meeting st.controller in
  let members =
    List.init n (fun i ->
        let c = add_client st ~index:i () in
        (Scallop.Controller.join st.controller mid c ~send_media:true, c))
  in
  (mid, members)

(* --- core media path --------------------------------------------------------- *)

let full_mesh_decodes () =
  let st = make () in
  let _, members = meeting st 4 in
  run st 6.0;
  let pids = List.map fst members in
  List.iter
    (fun p ->
      List.iter
        (fun q ->
          if p <> q then begin
            let rx = receiver_of st p ~from:q in
            Alcotest.(check bool) "decoding near 30fps" true
              (Codec.Video_receiver.frames_decoded rx > 140);
            Alcotest.(check int) "no freezes" 0 (Codec.Video_receiver.freezes rx)
          end)
        pids)
    pids

let audio_flows () =
  let st = make () in
  let _, members = meeting st 3 in
  run st 4.0;
  let p0 = fst (List.hd members) and p1 = fst (List.nth members 1) in
  let conn = Option.get (Scallop.Controller.recv_connection st.controller p0 ~from:p1) in
  Alcotest.(check bool) "audio packets" true (Webrtc.Client.audio_packets_received conn > 150)

let receive_only_participant () =
  let st = make () in
  let mid = Scallop.Controller.create_meeting st.controller in
  let sender = add_client st ~index:0 () in
  let watcher = add_client st ~index:1 () in
  let sp = Scallop.Controller.join st.controller mid sender ~send_media:true in
  let wp = Scallop.Controller.join st.controller mid watcher ~send_media:false in
  run st 4.0;
  let rx = receiver_of st wp ~from:sp in
  Alcotest.(check bool) "watcher decodes" true (Codec.Video_receiver.frames_decoded rx > 90);
  Alcotest.(check bool) "no reverse stream" true
    (Scallop.Controller.recv_connection st.controller sp ~from:wp = None)

(* --- §5.3: feedback isolation -------------------------------------------------- *)

let feedback_isolation () =
  (* One slow receiver must NOT drag the sender's bitrate down for everyone:
     the agent forwards only the best downlink's REMB, and serves the slow
     receiver by dropping layers instead. *)
  let st = make ~seed:5 () in
  let mid = Scallop.Controller.create_meeting st.controller in
  let sender = add_client st ~index:0 () in
  let fast_rx = add_client st ~index:1 () in
  let slow_rx =
    add_client st ~index:2 ~downlink:{ Link.default with rate_bps = 1.2e6 } ()
  in
  let sp = Scallop.Controller.join st.controller mid sender ~send_media:true in
  let fp = Scallop.Controller.join st.controller mid fast_rx ~send_media:false in
  let lp = Scallop.Controller.join st.controller mid slow_rx ~send_media:false in
  run st 25.0;
  (* the sender still encodes near its configured max *)
  let send_conn = Option.get (Scallop.Controller.send_connection st.controller sp) in
  Alcotest.(check bool) "sender bitrate preserved" true
    (Webrtc.Client.video_bitrate send_conn > 2_000_000);
  (* the fast receiver still enjoys full quality *)
  let fast_decoded = Codec.Video_receiver.frames_decoded (receiver_of st fp ~from:sp) in
  Alcotest.(check bool) "fast receiver at full rate" true (fast_decoded > 600);
  (* the slow receiver was adapted down by the agent, not starved *)
  let agent_mid = Scallop.Controller.agent_meeting_id st.controller mid in
  let target = Scallop.Switch_agent.current_target st.agent ~meeting:agent_mid ~sender:sp ~receiver:lp in
  Alcotest.(check bool) "slow receiver reduced" true (target <> Dd.DT_30fps);
  Alcotest.(check int) "slow receiver not frozen" 0
    (Codec.Video_receiver.freezes (receiver_of st lp ~from:sp))

let best_downlink_selected () =
  let st = make ~seed:6 () in
  let _, _ = meeting st 3 in
  run st 5.0;
  (* every sender stream forwards REMBs from exactly one selected leg; the
     analysis ran (rembs were seen) and at most a few switches happened *)
  Alcotest.(check bool) "rembs analyzed" true (agent_count "rembs_analyzed" > 10)

(* --- migration ------------------------------------------------------------------- *)

let migration_two_party_to_nra () =
  let st = make () in
  let mid = Scallop.Controller.create_meeting st.controller in
  let c0 = add_client st ~index:0 () in
  let c1 = add_client st ~index:1 () in
  let p0 = Scallop.Controller.join st.controller mid c0 ~send_media:true in
  let _p1 = Scallop.Controller.join st.controller mid c1 ~send_media:true in
  run st 3.0;
  let agent_mid = Scallop.Controller.agent_meeting_id st.controller mid in
  Alcotest.(check bool) "two-party design" true
    (Scallop.Switch_agent.meeting_design st.agent agent_mid = Scallop.Trees.Two_party);
  (* third joins mid-call; media to existing receivers must not freeze *)
  let c2 = add_client st ~index:2 () in
  let p2 = Scallop.Controller.join st.controller mid c2 ~send_media:true in
  run st 4.0;
  Alcotest.(check bool) "migrated off two-party" true
    (Scallop.Switch_agent.meeting_design st.agent agent_mid <> Scallop.Trees.Two_party);
  let rx = receiver_of st p2 ~from:p0 in
  Alcotest.(check bool) "new member decodes" true (Codec.Video_receiver.frames_decoded rx > 90);
  Alcotest.(check int) "no freeze across migration" 0 (Codec.Video_receiver.freezes rx)

let leave_cleans_up () =
  let st = make () in
  let mid, members = meeting st 3 in
  run st 2.0;
  let leaver = fst (List.nth members 2) in
  Scallop.Controller.leave st.controller leaver;
  run st 2.0;
  Alcotest.(check int) "two members left" 2
    (List.length (Scallop.Controller.meeting_participants st.controller mid));
  (* survivors keep decoding *)
  let p0 = fst (List.hd members) and p1 = fst (List.nth members 1) in
  let rx = receiver_of st p0 ~from:p1 in
  Alcotest.(check bool) "survivors fine" true (Codec.Video_receiver.frames_decoded rx > 90)

(* --- control plane --------------------------------------------------------------- *)

let stun_answered_by_agent () =
  let st = make () in
  let _ = meeting st 2 in
  run st 6.0;
  Alcotest.(check bool) "stun handled" true (agent_count "stun_answered" >= 4);
  (* clients measured an RTT through the switch *)
  ()

let sdp_exchanged () =
  let st = make () in
  let _ = meeting st 3 in
  (* per joiner: own offer+answer, plus a leg offer+answer per existing
     sender in each direction *)
  Alcotest.(check bool) "sdp messages flowed" true
    (Scallop_obs.Metrics.read ~labels:[ ("ctrl", "ctl") ] "scallop_ctrl_sdp_messages" >= 10)

let packet_split_dominated_by_dataplane () =
  let st = make () in
  let _ = meeting st 3 in
  run st 8.0;
  let c = Scallop.Dataplane.ingress_counters st.dp in
  let dp = c.rtp_audio_pkts + c.rtp_video_pkts + c.rtcp_sr_sdes_pkts in
  let cpu = c.rtcp_rr_pkts + c.rtcp_remb_pkts + c.stun_pkts + c.rtp_av1_ds_pkts in
  let frac = float_of_int dp /. float_of_int (dp + cpu) in
  Alcotest.(check bool) "over 94% in data plane" true (frac > 0.94)

let agent_never_touches_media () =
  let st = make () in
  let _ = meeting st 3 in
  run st 5.0;
  (* CPU-port bytes are a sliver of total switch traffic *)
  let cpu = float_of_int (Scallop.Dataplane.cpu_bytes st.dp) in
  let egress = float_of_int (Scallop.Dataplane.egress_bytes st.dp) in
  Alcotest.(check bool) "cpu sees under 2% of bytes" true (cpu /. (cpu +. egress) < 0.02)

(* --- the 8 header-authentication extension ------------------------------------- *)

let header_auth_extension () =
  let engine = Engine.create () in
  let rng = Rng.create 21 in
  let network = Network.create engine (Rng.split rng) in
  let sfu_ip = Addr.ip_of_string "10.0.0.1" in
  Network.add_host network ~ip:sfu_ip ~uplink:fast ~downlink:fast ();
  let dp = Scallop.Dataplane.create engine network ~ip:sfu_ip ~header_auth:true () in
  let agent = Scallop.Switch_agent.create engine dp () in
  let controller =
    Scallop.Controller.create engine network (Rng.split rng) ~agents:[ (agent, dp) ] ()
  in
  let mid = Scallop.Controller.create_meeting controller in
  let clients =
    List.init 2 (fun i ->
        let ip = Addr.ip_of_string (Printf.sprintf "10.0.4.%d" (i + 1)) in
        Network.add_host network ~ip ();
        Webrtc.Client.create engine network (Rng.split rng) (Webrtc.Client.default_config ~ip))
  in
  let pids = List.map (fun c -> Scallop.Controller.join controller mid c ~send_media:true) clients in
  Engine.run engine ~until:(Engine.sec 4.0);
  Alcotest.(check bool) "enabled" true (Scallop.Dataplane.header_auth_enabled dp);
  (* every *media* replica gets an HMAC; RTCP forwarded upstream does not *)
  Alcotest.(check bool) "media replicas authenticated" true
    (Scallop.Dataplane.headers_authenticated dp > 1_000
    && Scallop.Dataplane.headers_authenticated dp <= Scallop.Dataplane.egress_pkts dp);
  (* media still decodes; the extra pipeline latency is invisible to QoE *)
  let rx =
    Scallop.Controller.recv_connection controller (List.hd pids) ~from:(List.nth pids 1)
    |> Option.get |> Webrtc.Client.receiver |> Option.get
  in
  Alcotest.(check bool) "decodes with auth" true (Codec.Video_receiver.frames_decoded rx > 90);
  (* the resource model accounts for the crypto table *)
  let program = Scallop.Dataplane.resource_program dp in
  Alcotest.(check bool) "hmac table present" true
    (List.exists
       (fun (t : Tofino.Resources.table_spec) -> t.Tofino.Resources.t_name = "hmac_keys")
       program.Tofino.Resources.tables)

(* Correlated (bursty) loss on a sender's uplink: whole frames vanish at
   once — the decoder must recover via NACK/PLI without ever freezing on a
   duplicate (the §6.2 priority). *)
let bursty_loss_robustness () =
  let st = make ~seed:15 () in
  let mid = Scallop.Controller.create_meeting st.controller in
  let sender =
    add_client st ~index:0
      ~uplink:{ Link.default with loss_model = Some (Link.Gilbert { avg = 0.05; burst_len = 8.0 }) }
      ()
  in
  let watcher = add_client st ~index:1 () in
  let sp = Scallop.Controller.join st.controller mid sender ~send_media:true in
  let wp = Scallop.Controller.join st.controller mid watcher ~send_media:false in
  run st 20.0;
  let rx = receiver_of st wp ~from:sp in
  Alcotest.(check int) "no freezes under bursts" 0 (Codec.Video_receiver.freezes rx);
  Alcotest.(check bool) "few unrecoverable frames" true
    (Codec.Video_receiver.frames_undecodable rx < 60);
  Alcotest.(check bool) "most frames recovered" true
    (Codec.Video_receiver.frames_decoded rx > 420)

(* --- multi-switch management (Appendix A framework) ---------------------------- *)

let multi_switch_placement () =
  let engine = Engine.create () in
  let rng = Rng.create 13 in
  let network = Network.create engine (Rng.split rng) in
  let switch ip_str =
    let ip = Addr.ip_of_string ip_str in
    Network.add_host network ~ip ~uplink:fast ~downlink:fast ();
    let dp = Scallop.Dataplane.create engine network ~ip () in
    let agent = Scallop.Switch_agent.create engine dp () in
    (agent, dp)
  in
  let s1 = switch "10.0.0.1" and s2 = switch "10.0.0.2" in
  let controller =
    Scallop.Controller.create engine network (Rng.split rng) ~agents:[ s1; s2 ] ()
  in
  Alcotest.(check int) "two switches" 2 (Scallop.Controller.switch_count controller);
  (* three meetings round-robin across the two switches *)
  let meetings = List.init 3 (fun _ -> Scallop.Controller.create_meeting controller) in
  let client_idx = ref 0 in
  let members =
    List.map
      (fun mid ->
        List.init 2 (fun _ ->
            let ip = Addr.ip_of_string (Printf.sprintf "10.0.3.%d" (!client_idx + 1)) in
            incr client_idx;
            Network.add_host network ~ip ();
            let c =
              Webrtc.Client.create engine network (Rng.split rng)
                (Webrtc.Client.default_config ~ip)
            in
            (Scallop.Controller.join controller mid c ~send_media:true, c)))
      meetings
  in
  let dp_of mid = Scallop.Dataplane.ip (Scallop.Controller.meeting_switch controller mid) in
  Alcotest.(check bool) "meeting 0 and 1 on different switches" true
    (dp_of (List.nth meetings 0) <> dp_of (List.nth meetings 1));
  Alcotest.(check bool) "round robin wraps" true
    (dp_of (List.nth meetings 0) = dp_of (List.nth meetings 2));
  Engine.run engine ~until:(Engine.sec 5.0);
  (* every meeting's media flows on its own switch *)
  List.iter
    (fun pair ->
      match pair with
      | [ (p0, c0); (p1, _) ] ->
          ignore p1;
          let rx =
            Webrtc.Client.connections c0 |> List.filter_map Webrtc.Client.receiver
          in
          ignore p0;
          List.iter
            (fun r ->
              Alcotest.(check bool) "decodes on its switch" true
                (Codec.Video_receiver.frames_decoded r > 120))
            rx
      | _ -> Alcotest.fail "expected pairs")
    members

(* Screen sharing: a second stream bundle appears mid-call and disappears
   again — the controller trigger the paper lists alongside join/leave. *)
let screen_share_lifecycle () =
  let st = make () in
  let _mid, members = meeting st 3 in
  let pids = List.map fst members in
  let sharer = List.hd pids and viewer = List.nth pids 1 in
  run st 3.0;
  Alcotest.(check bool) "no screen before" true
    (Scallop.Controller.screen_connection st.controller viewer ~from:sharer = None);
  Scallop.Controller.start_screen_share st.controller sharer;
  run st 5.0;
  let conn =
    Option.get (Scallop.Controller.screen_connection st.controller viewer ~from:sharer)
  in
  let rx = Option.get (Webrtc.Client.receiver conn) in
  Alcotest.(check bool) "screen decodes" true (Codec.Video_receiver.frames_decoded rx > 120);
  Alcotest.(check int) "no freezes" 0 (Codec.Video_receiver.freezes rx);
  (* camera keeps flowing alongside the screen *)
  let cam_rx = receiver_of st viewer ~from:sharer in
  Alcotest.(check bool) "camera unaffected" true
    (Codec.Video_receiver.frames_decoded cam_rx > 200);
  (* stop: the stream and its state disappear *)
  let decoded_at_stop = Codec.Video_receiver.frames_decoded rx in
  Scallop.Controller.stop_screen_share st.controller sharer;
  run st 3.0;
  Alcotest.(check bool) "screen conn gone" true
    (Scallop.Controller.screen_connection st.controller viewer ~from:sharer = None);
  Alcotest.(check bool) "no more frames" true
    (Codec.Video_receiver.frames_decoded rx - decoded_at_stop < 10);
  (* sharing can restart cleanly *)
  Scallop.Controller.start_screen_share st.controller sharer;
  run st 3.0;
  let conn2 =
    Option.get (Scallop.Controller.screen_connection st.controller viewer ~from:sharer)
  in
  let rx2 = Option.get (Webrtc.Client.receiver conn2) in
  Alcotest.(check bool) "restart works" true (Codec.Video_receiver.frames_decoded rx2 > 60)

(* Simulcast: the switch splices each receiver onto the rendition its
   downlink affords; both receivers see one continuous stream. *)
let simulcast_meeting () =
  let st = make ~seed:44 () in
  let mid = Scallop.Controller.create_meeting st.controller in
  let sender = add_client st ~index:0 () in
  let fast = add_client st ~index:1 () in
  let slow = add_client st ~index:2 ~downlink:{ Link.default with rate_bps = 1.2e6; queue_bytes = 1_000_000 } () in
  let sp = Scallop.Controller.join ~simulcast:true st.controller mid sender ~send_media:true in
  let fp = Scallop.Controller.join st.controller mid fast ~send_media:false in
  let lp = Scallop.Controller.join st.controller mid slow ~send_media:false in
  run st 25.0;
  let rx_of pid =
    Scallop.Controller.recv_connection st.controller pid ~from:sp
    |> Option.get |> Webrtc.Client.receiver |> Option.get
  in
  let fast_rx = rx_of fp and slow_rx = rx_of lp in
  (* both decode at full frame rate with no freezes, despite the splice *)
  Alcotest.(check bool) "fast decodes" true (Codec.Video_receiver.frames_decoded fast_rx > 600);
  Alcotest.(check bool) "slow decodes" true (Codec.Video_receiver.frames_decoded slow_rx > 600);
  Alcotest.(check int) "fast no freezes" 0 (Codec.Video_receiver.freezes fast_rx);
  Alcotest.(check int) "slow no freezes" 0 (Codec.Video_receiver.freezes slow_rx);
  (* the slow receiver was spliced onto a cheaper rendition *)
  Alcotest.(check bool) "slow gets fewer bytes" true
    (float_of_int (Codec.Video_receiver.bytes_received slow_rx)
    < 0.6 *. float_of_int (Codec.Video_receiver.bytes_received fast_rx))

(* Two simulcast senders in one meeting: rendition SSRC spaces must not
   collide with each other or with anyone's audio. *)
let two_simulcast_senders () =
  let st = make ~seed:46 () in
  let mid = Scallop.Controller.create_meeting st.controller in
  let a = add_client st ~index:0 () in
  let b = add_client st ~index:1 () in
  let c = add_client st ~index:2 () in
  let pa = Scallop.Controller.join ~simulcast:true st.controller mid a ~send_media:true in
  let pb = Scallop.Controller.join ~simulcast:true st.controller mid b ~send_media:true in
  let pc = Scallop.Controller.join st.controller mid c ~send_media:false in
  run st 10.0;
  List.iter
    (fun (p, from) ->
      let rx =
        Scallop.Controller.recv_connection st.controller p ~from
        |> Option.get |> Webrtc.Client.receiver |> Option.get
      in
      Alcotest.(check bool) "decodes" true (Codec.Video_receiver.frames_decoded rx > 250);
      Alcotest.(check int) "no freezes" 0 (Codec.Video_receiver.freezes rx))
    [ (pc, pa); (pc, pb); (pa, pb); (pb, pa) ]

(* A meeting split across two switches: senders on each side must reach
   receivers on the other through the cascade relay, and a constrained
   receiver is adapted by *its own* switch without degrading anyone else. *)
let cascading_meeting () =
  let engine = Engine.create () in
  let rng = Rng.create 33 in
  let network = Network.create engine (Rng.split rng) in
  let switch ip_str =
    let ip = Addr.ip_of_string ip_str in
    Network.add_host network ~ip ~uplink:fast ~downlink:fast ();
    let dp = Scallop.Dataplane.create engine network ~ip () in
    let agent = Scallop.Switch_agent.create engine dp () in
    (agent, dp)
  in
  let (a1, dp1) = switch "10.0.0.1" and (a2, dp2) = switch "10.0.0.2" in
  let controller =
    Scallop.Controller.create engine network (Rng.split rng)
      ~agents:[ (a1, dp1); (a2, dp2) ] ()
  in
  let mid = Scallop.Controller.create_meeting controller in
  let mk i downlink =
    let ip = Addr.ip_of_string (Printf.sprintf "10.0.5.%d" (i + 1)) in
    Network.add_host network ~ip ~downlink ();
    Webrtc.Client.create engine network (Rng.split rng) (Webrtc.Client.default_config ~ip)
  in
  (* two participants per switch; the last one has a weak downlink *)
  let c0 = mk 0 Link.default and c1 = mk 1 Link.default in
  let c2 = mk 2 Link.default in
  let c3 = mk 3 { Link.default with rate_bps = 4.0e6; queue_bytes = 1_000_000 } in
  let p0 = Scallop.Controller.join ~home:0 controller mid c0 ~send_media:true in
  let _p1 = Scallop.Controller.join ~home:0 controller mid c1 ~send_media:true in
  let p2 = Scallop.Controller.join ~home:1 controller mid c2 ~send_media:true in
  let p3 = Scallop.Controller.join ~home:1 controller mid c3 ~send_media:false in
  Alcotest.(check int) "homes recorded" 1 (Scallop.Controller.participant_home controller p2);
  Engine.run engine ~until:(Engine.sec 25.0);
  (* media crosses the cascade in both directions *)
  let rx_of pid ~from =
    Scallop.Controller.recv_connection controller pid ~from
    |> Option.get |> Webrtc.Client.receiver |> Option.get
  in
  Alcotest.(check bool) "switch-1 receiver gets switch-0 sender" true
    (Codec.Video_receiver.frames_decoded (rx_of p2 ~from:p0) > 600);
  Alcotest.(check bool) "switch-0 receiver gets switch-1 sender" true
    (Codec.Video_receiver.frames_decoded (rx_of p0 ~from:p2) > 600);
  Alcotest.(check int) "no freezes across the cascade" 0
    (Codec.Video_receiver.freezes (rx_of p2 ~from:p0));
  (* both switches actually carried media *)
  Alcotest.(check bool) "switch 0 forwarded" true (Scallop.Dataplane.egress_pkts dp1 > 1000);
  Alcotest.(check bool) "switch 1 forwarded" true (Scallop.Dataplane.egress_pkts dp2 > 1000);
  (* the weak receiver was adapted by its own switch, while the healthy
     cross-switch receiver kept decoding at full rate *)
  let p3_frames = Codec.Video_receiver.frames_decoded (rx_of p3 ~from:p0) in
  let p2_frames = Codec.Video_receiver.frames_decoded (rx_of p2 ~from:p0) in
  Alcotest.(check bool) "constrained receiver adapted, not starved" true
    (p3_frames > 150 && p3_frames < p2_frames);
  Alcotest.(check int) "adapted without freezing" 0
    (Codec.Video_receiver.freezes (rx_of p3 ~from:p0))

(* A 2.5 Mb/s stream wraps its 16-bit sequence space every ~4 minutes; the
   rewriter, the NACK translation and the receiver's tracking must all
   survive the wrap (they operate in mod-2^16 arithmetic throughout). *)
let sequence_wraparound () =
  let st = make ~seed:27 () in
  let mid = Scallop.Controller.create_meeting st.controller in
  let sender = add_client st ~index:0 () in
  let slow =
    add_client st ~index:1
      ~downlink:{ Link.default with rate_bps = 2.0e6; queue_bytes = 1_000_000 }
      ()
  in
  let watcher = add_client st ~index:2 () in
  let sp = Scallop.Controller.join st.controller mid sender ~send_media:true in
  let lp = Scallop.Controller.join st.controller mid slow ~send_media:false in
  let _wp = Scallop.Controller.join st.controller mid watcher ~send_media:false in
  (* ~280 pps: the sequence space wraps twice in 500 simulated seconds,
     while the slow leg keeps an active rewrite offset *)
  run st 500.0;
  let rx = receiver_of st lp ~from:sp in
  Alcotest.(check int) "no freezes across wraps" 0 (Codec.Video_receiver.freezes rx);
  Alcotest.(check bool) "kept decoding after the wrap" true
    (Codec.Video_receiver.frames_decoded rx > 3200)

(* Monkey test: random joins, leaves and screen-share toggles while media
   flows. Invariants: no exception escapes, nobody freezes, every live
   receiver pair still decodes. *)
let churn_monkey () =
  let st = make ~seed:31 () in
  let mid = Scallop.Controller.create_meeting st.controller in
  let rng = Rng.create 5151 in
  let next_index = ref 0 in
  let live = ref [] in
  let join () =
    if List.length !live < 7 then begin
      let i = !next_index in
      incr next_index;
      let c = add_client st ~index:i () in
      let pid = Scallop.Controller.join st.controller mid c ~send_media:true in
      live := (pid, c, ref false) :: !live
    end
  in
  join ();
  join ();
  for _step = 1 to 40 do
    run st 0.7;
    match Rng.int rng 5 with
    | 0 -> join ()
    | 1 -> (
        (* somebody leaves (keep at least two) *)
        match !live with
        | (pid, _, sharing) :: rest when List.length !live > 2 ->
            if !sharing then Scallop.Controller.stop_screen_share st.controller pid;
            Scallop.Controller.leave st.controller pid;
            live := rest
        | _ -> ())
    | 2 -> (
        match !live with
        | (pid, _, sharing) :: _ when not !sharing ->
            Scallop.Controller.start_screen_share st.controller pid;
            sharing := true
        | _ -> ())
    | 3 -> (
        match !live with
        | (pid, _, sharing) :: _ when !sharing ->
            Scallop.Controller.stop_screen_share st.controller pid;
            sharing := false
        | _ -> ())
    | _ -> ()
  done;
  run st 5.0;
  (* every surviving pair still decodes fresh frames *)
  let pids = List.map (fun (p, _, _) -> p) !live in
  List.iter
    (fun p ->
      List.iter
        (fun q ->
          if p <> q then begin
            let rx = receiver_of st p ~from:q in
            Alcotest.(check int) "no freezes through churn" 0
              (Codec.Video_receiver.freezes rx)
          end)
        pids)
    pids;
  Alcotest.(check bool) "churn actually happened" true (!next_index > 4)

(* --- recovery paths ----------------------------------------------------------------- *)

let nack_recovery_through_rewrite () =
  (* lossy uplink: receivers NACK rewritten seqs; the data plane translates
     them back so the sender's retransmission buffer can serve them *)
  let st = make ~seed:9 () in
  let mid = Scallop.Controller.create_meeting st.controller in
  let sender = add_client st ~index:0 ~uplink:{ Link.default with loss = 0.02 } () in
  let rx_client = add_client st ~index:1 () in
  let watcher = add_client st ~index:2 () in
  let sp = Scallop.Controller.join st.controller mid sender ~send_media:true in
  let rp = Scallop.Controller.join st.controller mid rx_client ~send_media:false in
  let _wp = Scallop.Controller.join st.controller mid watcher ~send_media:false in
  run st 12.0;
  let send_conn = Option.get (Scallop.Controller.send_connection st.controller sp) in
  Alcotest.(check bool) "sender retransmitted" true
    (Webrtc.Client.retransmissions send_conn > 0);
  let rx = receiver_of st rp ~from:sp in
  Alcotest.(check bool) "still decodes most frames" true
    (Codec.Video_receiver.frames_decoded rx > 250)

let () =
  Alcotest.run "scallop"
    [
      ( "media path",
        [
          Alcotest.test_case "full mesh decodes" `Quick full_mesh_decodes;
          Alcotest.test_case "audio flows" `Quick audio_flows;
          Alcotest.test_case "receive-only participant" `Quick receive_only_participant;
        ] );
      ( "feedback (5.3)",
        [
          Alcotest.test_case "isolation" `Quick feedback_isolation;
          Alcotest.test_case "best downlink selected" `Quick best_downlink_selected;
        ] );
      ( "migration",
        [
          Alcotest.test_case "two-party to NRA" `Quick migration_two_party_to_nra;
          Alcotest.test_case "leave cleans up" `Quick leave_cleans_up;
        ] );
      ( "control plane",
        [
          Alcotest.test_case "stun answered" `Quick stun_answered_by_agent;
          Alcotest.test_case "sdp exchanged" `Quick sdp_exchanged;
          Alcotest.test_case "packet split" `Quick packet_split_dominated_by_dataplane;
          Alcotest.test_case "agent media-free" `Quick agent_never_touches_media;
        ] );
      ( "long-haul",
        [
          Alcotest.test_case "sequence wraparound" `Slow sequence_wraparound;
          Alcotest.test_case "churn monkey" `Slow churn_monkey;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "nack through rewrite" `Quick nack_recovery_through_rewrite;
          Alcotest.test_case "bursty uplink loss" `Quick bursty_loss_robustness;
        ] );
      ( "multi-switch",
        [ Alcotest.test_case "round-robin placement" `Quick multi_switch_placement ] );
      ( "extensions",
        [
          Alcotest.test_case "header authentication (8)" `Quick header_auth_extension;
          Alcotest.test_case "cascading (appendix A)" `Quick cascading_meeting;
          Alcotest.test_case "screen share start/stop" `Quick screen_share_lifecycle;
          Alcotest.test_case "simulcast splicing" `Quick simulcast_meeting;
          Alcotest.test_case "two simulcast senders" `Quick two_simulcast_senders;
        ] );
    ]
