(* WebRTC client endpoint tests, including a pure peer-to-peer call: the
   endpoint implements the full protocol machinery on its own, which is
   precisely why Scallop can pose as a peer (the P2P illusion). *)

module Addr = Scallop_util.Addr
module Rng = Scallop_util.Rng
module Engine = Netsim.Engine
module Network = Netsim.Network
module Link = Netsim.Link
module Client = Webrtc.Client

let setup () =
  let engine = Engine.create () in
  let rng = Rng.create 17 in
  let network = Network.create engine (Rng.split rng) in
  (engine, rng, network)

let mk_client engine network rng ~ip_str ?(config = Client.default_config) () =
  let ip = Addr.ip_of_string ip_str in
  Network.add_host network ~ip ();
  Client.create engine network (Rng.split rng) (config ~ip)

(* Two clients talking directly to each other: A's send connection targets
   B's receive connection and vice versa. *)
let p2p_pair ?config_a ?config_b () =
  let engine, rng, network = setup () in
  let a = mk_client engine network rng ~ip_str:"10.1.0.1" ?config:config_a () in
  let b = mk_client engine network rng ~ip_str:"10.1.0.2" ?config:config_b () in
  (* fixed ports so each side can predict its peer *)
  let a_send = 20_100 and b_recv = 20_200 and b_send = 20_300 and a_recv = 20_400 in
  let conn_b_recv =
    Client.add_recv_connection b ~local_port:b_recv
      ~remote:(Addr.v (Client.ip a) a_send) ~video_ssrc:111 ~audio_ssrc:112
  in
  let conn_a_send =
    Client.add_send_connection a ~local_port:a_send
      ~remote:(Addr.v (Client.ip b) b_recv) ~video_ssrc:111 ~audio_ssrc:112
  in
  let conn_a_recv =
    Client.add_recv_connection a ~local_port:a_recv
      ~remote:(Addr.v (Client.ip b) b_send) ~video_ssrc:221 ~audio_ssrc:222
  in
  let conn_b_send =
    Client.add_send_connection b ~local_port:b_send
      ~remote:(Addr.v (Client.ip a) a_recv) ~video_ssrc:221 ~audio_ssrc:222
  in
  (engine, network, (a, conn_a_send, conn_a_recv), (b, conn_b_send, conn_b_recv))

let p2p_call_works () =
  let engine, _net, (_, _, a_recv), (_, _, b_recv) = p2p_pair () in
  Engine.run engine ~until:(Engine.sec 5.0);
  List.iter
    (fun conn ->
      let rx = Option.get (Client.receiver conn) in
      Alcotest.(check bool) "near 30 fps" true (Codec.Video_receiver.frames_decoded rx > 120);
      Alcotest.(check int) "no freezes" 0 (Codec.Video_receiver.freezes rx);
      Alcotest.(check bool) "audio too" true (Client.audio_packets_received conn > 200))
    [ a_recv; b_recv ]

let stun_rtt_measured () =
  let engine, _net, (_, a_send, _), _ = p2p_pair () in
  Engine.run engine ~until:(Engine.sec 6.0);
  match Client.stun_rtt_ms a_send with
  | Some rtt ->
      (* two 5 ms propagation legs each way = ~20 ms *)
      Alcotest.(check bool) "plausible rtt" true (rtt > 15.0 && rtt < 40.0)
  | None -> Alcotest.fail "no STUN round trip measured"

let sender_reports_flow () =
  let engine, _net, (_, _, a_recv), _ = p2p_pair () in
  Engine.run engine ~until:(Engine.sec 5.0);
  (* ~520 ms cadence over 5 s, compound includes video+audio SRs *)
  Alcotest.(check bool) "SRs received" true (Client.srs_received a_recv >= 7)

let remb_throttles_sender () =
  let engine, network, (_, a_send, _), _ = p2p_pair () in
  Engine.run engine ~until:(Engine.sec 2.0);
  Alcotest.(check int) "starts at configured max" 2_500_000 (Client.video_bitrate a_send);
  (* B's downlink collapses; B's GCC tells A to slow down *)
  Link.set_rate (Network.downlink network ~ip:(Addr.ip_of_string "10.1.0.2")) 800_000.0;
  Engine.run engine ~until:(Engine.sec 25.0);
  Alcotest.(check bool) "sender slowed" true (Client.video_bitrate a_send < 1_500_000)

let nack_recovers_loss () =
  let engine, _net, (a, a_send, _), (_, _, b_recv) = p2p_pair () in
  ignore a;
  (* drop ~1% on the path from A to B *)
  Engine.run engine ~until:(Engine.sec 1.0);
  let a_up = Network.uplink _net ~ip:(Addr.ip_of_string "10.1.0.1") in
  Link.set_loss a_up 0.01;
  Engine.run engine ~until:(Engine.sec 15.0);
  Link.set_loss a_up 0.0;
  Engine.run engine ~until:(Engine.sec 17.0);
  Alcotest.(check bool) "sender retransmitted" true (Client.retransmissions a_send > 0);
  let rx = Option.get (Client.receiver b_recv) in
  Alcotest.(check bool) "losses recovered" true
    (Codec.Video_receiver.frames_decoded rx > 420);
  Alcotest.(check int) "no freezes" 0 (Codec.Video_receiver.freezes rx)

let pacing_spreads_frames () =
  let engine, _net, _, _ = p2p_pair () in
  (* watch inter-departure gaps on A's uplink wire *)
  let engine2, rng2, network2 = setup () in
  ignore engine;
  let a = mk_client engine2 network2 rng2 ~ip_str:"10.2.0.1" () in
  Network.add_host network2 ~ip:(Addr.ip_of_string "10.2.0.9") ();
  (* a minimal peer: answer connectivity checks so ICE completes and the
     held-back media starts flowing *)
  let sink = Addr.v (Addr.ip_of_string "10.2.0.9") 9 in
  Network.bind network2 sink (fun dgram ->
      match Rtp.Stun.parse dgram.Netsim.Dgram.payload with
      | exception _ -> ()
      | msg when msg.Rtp.Stun.cls = Rtp.Stun.Request ->
          let reply =
            Rtp.Stun.binding_success ~transaction_id:msg.Rtp.Stun.transaction_id
              ~mapped_ip:dgram.Netsim.Dgram.src.Addr.ip
              ~mapped_port:dgram.Netsim.Dgram.src.Addr.port
          in
          Network.send network2
            (Netsim.Dgram.v ~src:sink ~dst:dgram.Netsim.Dgram.src (Rtp.Stun.serialize reply))
      | _ -> ());
  let last_tx = ref 0 and min_gap = ref max_int and tx_count = ref 0 in
  Client.set_tx_hook a (fun ~time_ns dgram ->
      if Rtp.Demux.classify dgram.Netsim.Dgram.payload = Rtp.Demux.Rtp_media
         && Bytes.length dgram.Netsim.Dgram.payload > 500 then begin
        if !tx_count > 0 then min_gap := min !min_gap (time_ns - !last_tx);
        last_tx := time_ns;
        incr tx_count
      end);
  ignore
    (Client.add_send_connection a ~local_port:21_000
       ~remote:(Addr.v (Addr.ip_of_string "10.2.0.9") 9) ~video_ssrc:5 ~audio_ssrc:6);
  Engine.run engine2 ~until:(Engine.sec 2.0);
  Alcotest.(check bool) "sent packets" true (!tx_count > 100);
  Alcotest.(check bool) "video never bursts back-to-back" true (!min_gap >= 300_000)

let connection_close_stops_media () =
  let engine, _net, (a, a_send, _), (_, _, b_recv) = p2p_pair () in
  Engine.run engine ~until:(Engine.sec 2.0);
  let rx = Option.get (Client.receiver b_recv) in
  let before = Codec.Video_receiver.packets_received rx in
  Client.close_connection a a_send;
  Engine.run engine ~until:(Engine.sec 4.0);
  let after = Codec.Video_receiver.packets_received rx in
  (* nothing but in-flight stragglers after the close *)
  Alcotest.(check bool) "media stopped" true (after - before < 30)

let ice_gates_media () =
  (* a send connection towards a black hole: connectivity never confirms,
     so not a single media packet may leave *)
  let engine, rng, network = setup () in
  let a = mk_client engine network rng ~ip_str:"10.4.0.1" () in
  Network.add_host network ~ip:(Addr.ip_of_string "10.4.0.9") ();
  let rtp_sent = ref 0 in
  Client.set_tx_hook a (fun ~time_ns:_ dgram ->
      if Rtp.Demux.classify dgram.Netsim.Dgram.payload = Rtp.Demux.Rtp_media then incr rtp_sent);
  let conn =
    Client.add_send_connection a ~local_port:22_000
      ~remote:(Addr.v (Addr.ip_of_string "10.4.0.9") 9) ~video_ssrc:1 ~audio_ssrc:2
  in
  Engine.run engine ~until:(Engine.sec 5.0);
  Alcotest.(check bool) "never connected" false (Client.connected conn);
  Alcotest.(check int) "no media leaked" 0 !rtp_sent

let bye_sent_on_close () =
  let engine, _net, (a, a_send, _), (_, _, b_recv) = p2p_pair () in
  Engine.run engine ~until:(Engine.sec 2.0);
  let byes = ref 0 in
  Client.set_tx_hook a (fun ~time_ns:_ dgram ->
      match Rtp.Demux.classify dgram.Netsim.Dgram.payload with
      | Rtp.Demux.Rtcp_feedback ->
          List.iter
            (function Rtp.Rtcp.Bye _ -> incr byes | _ -> ())
            (Rtp.Rtcp.parse_compound dgram.Netsim.Dgram.payload)
      | _ -> ());
  Client.close_connection a a_send;
  ignore b_recv;
  Alcotest.(check int) "one BYE" 1 !byes

let fresh_ports_unique () =
  let engine, rng, network = setup () in
  let c = mk_client engine network rng ~ip_str:"10.3.0.1" () in
  let ports = List.init 100 (fun _ -> Client.fresh_port c) in
  Alcotest.(check int) "all distinct" 100 (List.length (List.sort_uniq compare ports))

(* --- receive path ------------------------------------------------------------- *)

(* A receive connection fed directly through [Client.deliver], plus a
   media stream for it: canonical serialized video (L1T3 with dependency
   descriptors) and audio replicas, as the data plane emits them. *)
let rx_fixture () =
  let engine, rng, network = setup () in
  let c = mk_client engine network rng ~ip_str:"10.5.0.2" () in
  let remote = Addr.v (Addr.ip_of_string "10.5.0.1") 7000 in
  let conn = Client.add_recv_connection c ~local_port:23_000 ~remote ~video_ssrc:31 ~audio_ssrc:32 in
  Client.attach_qoe conn ~meeting:1 ~receiver:2 ~sender:1 ~media:Scallop_obs.Qoe.Camera;
  let dgram buf = Netsim.Dgram.v ~src:remote ~dst:(Client.local_addr conn) buf in
  (engine, c, conn, rng, dgram)

(* [(arrival_ns, datagram)] for [seconds] of one sender's media, in
   arrival order: 30 fps video paced 500 us apart within a frame, 20 ms
   audio, a fixed 5 ms path delay *)
let media_stream rng dgram ~seconds =
  let video = Codec.Video_source.create (Rng.split rng) (Codec.Video_source.default_config ~ssrc:31) in
  let audio = Codec.Audio_source.create (Rng.split rng) (Codec.Audio_source.default_config ~ssrc:32) in
  let until = Engine.sec seconds in
  let out = ref [] in
  let rec frames t =
    if t < until then begin
      let f = Codec.Video_source.next_frame video ~time_ns:t in
      List.iteri
        (fun i p -> out := (t + 5_000_000 + (i * 500_000), dgram (Rtp.Packet.serialize p)) :: !out)
        f.Codec.Video_source.packets;
      frames (t + 33_333_333)
    end
  in
  let rec audio_pkts t =
    if t < until then begin
      let p = Codec.Audio_source.next_packet audio ~time_ns:t in
      out := (t + 5_000_000, dgram (Rtp.Packet.serialize p)) :: !out;
      audio_pkts (t + Codec.Audio_source.interval_ns)
    end
  in
  frames 0;
  audio_pkts 0;
  List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !out)

let rx_counters conn =
  let v = Option.get (Client.receiver conn) in
  let a = Option.get (Client.audio_receiver conn) in
  Codec.Video_receiver.
    ( packets_received v,
      bytes_received v,
      duplicates v,
      frames_decoded v + frames_incomplete v,
      Codec.Audio_receiver.packets_received a,
      Codec.Audio_receiver.duplicates a )

(* Hostile RTP at a receive connection is dropped whole: no exception
   and no counter moves, while a valid packet afterwards still counts. *)
let malformed_rtp_dropped () =
  let engine, c, conn, rng, dgram = rx_fixture () in
  let stream = media_stream rng dgram ~seconds:0.5 in
  List.iter
    (fun (at, d) -> Engine.at engine ~time:at (fun () -> Client.deliver c conn d))
    stream;
  Engine.run engine ~until:(Engine.sec 0.5);
  let before = rx_counters conn in
  (* a video packet: it carries the dependency-descriptor extension block *)
  let good =
    snd
      (List.find
         (fun (_, d) ->
           let b = d.Netsim.Dgram.payload in
           Char.code (Bytes.get b 0) land 0x10 <> 0)
         stream)
  in
  (* an audio packet: a payload short enough for a one-byte pad count to
     overrun it *)
  let small =
    snd (List.find (fun (_, d) -> Bytes.length d.Netsim.Dgram.payload < 12 + 255) stream)
  in
  let buf = good.Netsim.Dgram.payload in
  let patched src f =
    let b = Bytes.copy src in
    f b;
    b
  in
  let ext_words = (Char.code (Bytes.get buf 14) lsl 8) lor Char.code (Bytes.get buf 15) in
  let hostile =
    [
      ("truncated header", Bytes.sub buf 0 9);
      ("bad version", patched buf (fun b -> Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land 0x3F lor 0x40))));
      ("truncated extension block", Bytes.sub buf 0 (16 + (4 * ext_words) - 1));
      ( "pad count too large",
        patched small.Netsim.Dgram.payload (fun b ->
            Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lor 0x20));
            Bytes.set b (Bytes.length b - 1) '\255') );
    ]
  in
  List.iter
    (fun (name, bytes) ->
      (match Rtp.Packet.parse bytes with
      | exception Rtp.Wire.Parse_error _ -> ()
      | _ -> Alcotest.failf "%s: fixture parses" name);
      (match Client.deliver c conn (dgram bytes) with
      | () -> ()
      | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e));
      if rx_counters conn <> before then Alcotest.failf "%s: receiver counters moved" name)
    hostile;
  Client.deliver c conn good;
  let v, _, dups, _, _, _ = rx_counters conn in
  let v0, _, dups0, _, _, _ = before in
  Alcotest.(check int) "a valid replay still counts" (v0 + 1) v;
  Alcotest.(check int) "as a retransmission duplicate" (dups0 + 1) dups

(* A receive connection keeps no retransmit history: an RTCP NACK that
   reaches it is ignored, with no exception and nothing sent. *)
let nack_on_recv_ignored () =
  let engine, c, conn, rng, dgram = rx_fixture () in
  List.iter
    (fun (at, d) -> Engine.at engine ~time:at (fun () -> Client.deliver c conn d))
    (media_stream rng dgram ~seconds:0.5);
  Engine.run engine ~until:(Engine.sec 0.5);
  let media_sent = ref 0 in
  Client.set_tx_hook c (fun ~time_ns:_ d ->
      if Rtp.Demux.classify d.Netsim.Dgram.payload = Rtp.Demux.Rtp_media then
        incr media_sent);
  let nack =
    Rtp.Rtcp.serialize_compound
      [ Rtp.Rtcp.Nack { sender_ssrc = 0; media_ssrc = 31; lost = List.init 64 Fun.id } ]
  in
  (match Client.deliver c conn (dgram nack) with
  | () -> ()
  | exception e -> Alcotest.failf "NACK raised %s" (Printexc.to_string e));
  Engine.run engine ~until:(Engine.sec 1.0);
  Alcotest.(check int) "no retransmission" 0 (Client.retransmissions conn);
  Alcotest.(check int) "no media sent" 0 !media_sent

(* Steady-state allocation of the client receive path per canonical
   replica: the work every packet the data plane fans out costs at its
   receiver. What still allocates is the per-packet jitter sample the
   receiver retains, per-frame table entries and the packet view; the
   ceiling catches a per-packet list rebuild, payload copy or boxed
   table update coming back. *)
let rx_alloc_budget_bytes_per_packet = 1_024

let rx_alloc_budget () =
  let engine, c, conn, rng, dgram = rx_fixture () in
  let warm_ns = Engine.sec 3.0 in
  let stream = media_stream rng dgram ~seconds:6.0 in
  let probe () = Gc.minor_words () in
  let overhead =
    let a = probe () in
    let b = probe () in
    b -. a
  in
  let words = ref 0.0 and measured = ref 0 in
  List.iter
    (fun (at, d) ->
      Engine.at engine ~time:at (fun () ->
          if at < warm_ns then Client.deliver c conn d
          else begin
            let a = probe () in
            Client.deliver c conn d;
            words := !words +. (probe () -. a -. overhead);
            incr measured
          end))
    stream;
  Engine.run engine ~until:(Engine.sec 7.0);
  let v, _, _, _, a, _ = rx_counters conn in
  Alcotest.(check bool) "decoded the stream" true
    (Codec.Video_receiver.frames_decoded (Option.get (Client.receiver conn)) > 150);
  Alcotest.(check int) "every packet received" (List.length stream) (v + a);
  let per_pkt = !words *. float_of_int (Sys.word_size / 8) /. float_of_int !measured in
  if per_pkt > float_of_int rx_alloc_budget_bytes_per_packet then
    Alcotest.failf "client receive path allocates %.0f B/packet (budget %d)" per_pkt
      rx_alloc_budget_bytes_per_packet

let () =
  Alcotest.run "webrtc"
    [
      ( "p2p",
        [
          Alcotest.test_case "call works" `Quick p2p_call_works;
          Alcotest.test_case "stun rtt" `Quick stun_rtt_measured;
          Alcotest.test_case "sender reports" `Quick sender_reports_flow;
          Alcotest.test_case "remb throttles sender" `Quick remb_throttles_sender;
          Alcotest.test_case "nack recovers loss" `Quick nack_recovers_loss;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "pacing" `Quick pacing_spreads_frames;
          Alcotest.test_case "close stops media" `Quick connection_close_stops_media;
          Alcotest.test_case "fresh ports" `Quick fresh_ports_unique;
          Alcotest.test_case "ice gates media" `Quick ice_gates_media;
          Alcotest.test_case "bye on close" `Quick bye_sent_on_close;
        ] );
      ( "receive",
        [
          Alcotest.test_case "malformed rtp dropped" `Quick malformed_rtp_dropped;
          Alcotest.test_case "alloc budget" `Quick rx_alloc_budget;
          Alcotest.test_case "nack on a receive connection" `Quick nack_on_recv_ignored;
        ] );
    ]
