(* Codec model tests: SVC source pattern, packetization, decoder behaviour
   (the freeze/NACK semantics the paper's §6.2 design depends on). *)

module Rng = Scallop_util.Rng
module Dd = Av1.Dd
module Vs = Codec.Video_source
module As = Codec.Audio_source
module Rx = Codec.Video_receiver
module Rp = Codec.Rate_policy

let make_source ?(bitrate = 2_500_000) ?(keyframe_interval = 300) () =
  Vs.create (Rng.create 11)
    { (Vs.default_config ~ssrc:7) with target_bitrate_bps = bitrate; keyframe_interval }

let frames_of src n =
  List.init n (fun i -> Vs.next_frame src ~time_ns:(i * 33_333_333))

(* --- video source ------------------------------------------------------------- *)

let source_cycle_pattern () =
  let frames = frames_of (make_source ()) 8 in
  let layers = List.map (fun f -> f.Vs.layer) frames in
  Alcotest.(check bool) "L1T3 cycle" true
    (layers = [ Dd.T0; Dd.T2; Dd.T1; Dd.T2; Dd.T0; Dd.T2; Dd.T1; Dd.T2 ])

let source_first_frame_is_keyframe () =
  let frames = frames_of (make_source ()) 4 in
  Alcotest.(check bool) "first is key" true (List.hd frames).Vs.keyframe;
  Alcotest.(check bool) "others are not" true
    (List.for_all (fun f -> not f.Vs.keyframe) (List.tl frames))

let source_keyframe_carries_structure () =
  let frame = List.hd (frames_of (make_source ()) 1) in
  let first = List.hd frame.Vs.packets in
  match Rtp.Packet.find_extension first Dd.extension_id with
  | None -> Alcotest.fail "missing descriptor"
  | Some data ->
      Alcotest.(check bool) "structure present" true ((Dd.parse data).Dd.structure <> None)

let source_frame_numbers_increment () =
  let frames = frames_of (make_source ()) 10 in
  List.iteri (fun i f -> Alcotest.(check int) "frame number" i f.Vs.number) frames

let source_sequence_continuous () =
  let src = make_source () in
  let packets = List.concat_map (fun f -> f.Vs.packets) (frames_of src 20) in
  let rec check = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check int) "consecutive"
          (Rtp.Packet.seq_succ a.Rtp.Packet.sequence)
          b.Rtp.Packet.sequence;
        check rest
    | _ -> ()
  in
  check packets

let source_respects_mtu () =
  let src = make_source () in
  List.iter
    (fun f ->
      List.iter
        (fun p -> Alcotest.(check bool) "<= mtu" true (Bytes.length p.Rtp.Packet.payload <= 1160))
        f.Vs.packets)
    (frames_of src 20)

let source_bitrate_tracks_target () =
  let src = make_source ~bitrate:1_000_000 ~keyframe_interval:0 () in
  let frames = frames_of src 300 in
  let bytes = List.fold_left (fun acc f -> acc + f.Vs.size_bytes) 0 frames in
  let bps = float_of_int (bytes * 8) /. 10.0 in
  Alcotest.(check bool) "within 25% of target" true (bps > 0.75e6 && bps < 1.25e6)

let source_marker_on_last_packet () =
  let frame = List.hd (frames_of (make_source ()) 1) in
  let last = List.nth frame.Vs.packets (List.length frame.Vs.packets - 1) in
  Alcotest.(check bool) "marker" true last.Rtp.Packet.marker

let source_pli_forces_keyframe () =
  let src = make_source ~keyframe_interval:0 () in
  let _ = frames_of src 4 in
  Vs.request_keyframe src;
  let next = Vs.next_frame src ~time_ns:0 in
  Alcotest.(check bool) "keyframe on demand" true next.Vs.keyframe

let source_set_bitrate () =
  let src = make_source () in
  Vs.set_bitrate src 500_000;
  Alcotest.(check int) "updated" 500_000 (Vs.bitrate src);
  Vs.set_bitrate src 1;
  Alcotest.(check bool) "floored" true (Vs.bitrate src >= 50_000)

(* --- audio source ---------------------------------------------------------------- *)

let audio_cadence () =
  let src = As.create (Rng.create 3) (As.default_config ~ssrc:9) in
  let p1 = As.next_packet src ~time_ns:0 in
  let p2 = As.next_packet src ~time_ns:As.interval_ns in
  Alcotest.(check int) "seq increments" (Rtp.Packet.seq_succ p1.Rtp.Packet.sequence)
    p2.Rtp.Packet.sequence;
  Alcotest.(check bool) "48kHz timestamps move" true
    (p2.Rtp.Packet.timestamp > p1.Rtp.Packet.timestamp);
  Alcotest.(check bool) "size plausible" true
    (Bytes.length p1.Rtp.Packet.payload >= 32 && Bytes.length p1.Rtp.Packet.payload <= 200)

(* --- receiver / decoder ------------------------------------------------------------- *)

(* Receivers read serialized packets in place, the way the client hands
   them over. *)
let view p = Rtp.Packet.View.of_bytes ~ext_id:Dd.extension_id (Rtp.Packet.serialize p)
let rx_receive rx ~time_ns p = Rx.receive rx ~time_ns (view p)
let arx_receive rx ~time_ns p = Codec.Audio_receiver.receive rx ~time_ns (view p)

let feed rx frames = List.iter (fun f -> List.iter (rx_receive rx ~time_ns:0) f.Vs.packets) frames

let feed_at rx time_ns frames =
  List.iter (fun f -> List.iter (rx_receive rx ~time_ns) f.Vs.packets) frames

let rx_decodes_clean_stream () =
  let rx = Rx.create ~ssrc:7 () in
  feed rx (frames_of (make_source ()) 60);
  Alcotest.(check int) "all decoded" 60 (Rx.frames_decoded rx);
  Alcotest.(check int) "no freezes" 0 (Rx.freezes rx)

let rx_ignores_other_ssrc () =
  let rx = Rx.create ~ssrc:999 () in
  feed rx (frames_of (make_source ()) 10);
  Alcotest.(check int) "nothing" 0 (Rx.packets_received rx)

let rx_gap_triggers_nack () =
  let rx = Rx.create ~ssrc:7 ~nack_delay_ns:0 () in
  let frames = frames_of (make_source ()) 10 in
  (* drop one mid-stream packet entirely *)
  let all = List.concat_map (fun f -> f.Vs.packets) frames in
  List.iteri (fun i p -> if i <> 12 then rx_receive rx ~time_ns:0 p) all;
  let nacks = Rx.poll_nacks rx ~time_ns:1_000_000 in
  Alcotest.(check int) "one missing seq" 1 (List.length nacks);
  Alcotest.(check int) "the dropped one" (List.nth all 12).Rtp.Packet.sequence (List.hd nacks)

let rx_retransmission_fills_gap () =
  let rx = Rx.create ~ssrc:7 ~nack_delay_ns:0 () in
  let all = List.concat_map (fun f -> f.Vs.packets) (frames_of (make_source ()) 10) in
  let held = List.nth all 12 in
  List.iteri (fun i p -> if i <> 12 then rx_receive rx ~time_ns:0 p) all;
  rx_receive rx ~time_ns:0 held;
  Alcotest.(check (list int)) "no nacks pending" [] (Rx.poll_nacks rx ~time_ns:1_000_000)

let rx_same_packet_twice_harmless () =
  let rx = Rx.create ~ssrc:7 () in
  let frames = frames_of (make_source ()) 5 in
  feed rx frames;
  (* replay the last frame's packets: pure retransmission duplicates *)
  List.iter (rx_receive rx ~time_ns:0) (List.nth frames 4).Vs.packets;
  Alcotest.(check int) "no freeze" 0 (Rx.freezes rx);
  Alcotest.(check bool) "counted" true (Rx.duplicates rx > 0)

let rx_conflicting_duplicate_freezes () =
  (* the paper's catastrophic case: same sequence number, different frame *)
  let rx = Rx.create ~ssrc:7 () in
  let frames = frames_of (make_source ()) 5 in
  feed rx frames;
  let victim = List.hd (List.nth frames 2).Vs.packets in
  let forged =
    Rtp.Packet.make
      ~extensions:
        [
          {
            Rtp.Packet.id = Dd.extension_id;
            data =
              Dd.serialize
                {
                  Dd.start_of_frame = true;
                  end_of_frame = true;
                  template_id = 1;
                  frame_number = 999;
                  structure = None;
                };
          };
        ]
      ~payload_type:96 ~sequence:victim.Rtp.Packet.sequence ~timestamp:0 ~ssrc:7
      (Bytes.create 10)
  in
  rx_receive rx ~time_ns:0 forged;
  Alcotest.(check bool) "frozen" true (Rx.frozen rx);
  Alcotest.(check int) "freeze counted" 1 (Rx.freezes rx)

let rx_keyframe_unfreezes () =
  let rx = Rx.create ~ssrc:7 () in
  let src = make_source ~keyframe_interval:0 () in
  let frames = frames_of src 5 in
  feed rx frames;
  (* freeze it: reuse a sequence number already seen, with different data *)
  let victim_seq = (List.hd (List.nth frames 2).Vs.packets).Rtp.Packet.sequence in
  let forged =
    Rtp.Packet.make
      ~extensions:
        [
          {
            Rtp.Packet.id = Dd.extension_id;
            data =
              Dd.serialize
                {
                  Dd.start_of_frame = true;
                  end_of_frame = true;
                  template_id = 1;
                  frame_number = 900;
                  structure = None;
                };
          };
        ]
      ~payload_type:96 ~sequence:victim_seq ~timestamp:0 ~ssrc:7 (Bytes.create 10)
  in
  rx_receive rx ~time_ns:0 forged;
  Alcotest.(check bool) "frozen" true (Rx.frozen rx);
  Vs.request_keyframe src;
  (* a demanded key frame waits for the next cycle start (up to 4 frames) *)
  feed rx (frames_of src 4);
  Alcotest.(check bool) "recovered by keyframe" false (Rx.frozen rx)

let rx_layer_dropped_stream_decodes () =
  (* the SFU's 15 fps adaptation: T2 frames never arrive; survivors must
     still decode (their dependencies skip the dropped frames) *)
  let rx = Rx.create ~ssrc:7 () in
  let frames = frames_of (make_source ()) 40 in
  List.iter
    (fun f -> if f.Vs.layer <> Dd.T2 then List.iter (rx_receive rx ~time_ns:0) f.Vs.packets)
    frames;
  Alcotest.(check int) "half the frames decoded" 20 (Rx.frames_decoded rx);
  Alcotest.(check int) "none undecodable" 0 (Rx.frames_undecodable rx)

let rx_missing_reference_undecodable () =
  let rx = Rx.create ~ssrc:7 () in
  let frames = frames_of (make_source ~keyframe_interval:0 ()) 100 in
  (* drop frame 4 (T0) permanently: the T0 reference chain breaks, and once
     the waiting window is exceeded the dependents count as undecodable *)
  List.iteri
    (fun i f -> if i <> 4 then List.iter (rx_receive rx ~time_ns:0) f.Vs.packets)
    frames;
  Alcotest.(check bool) "some undecodable" true (Rx.frames_undecodable rx > 0);
  Alcotest.(check bool) "decoding stalled after break" true (Rx.frames_decoded rx < 20)

let rx_pli_on_starvation () =
  let rx = Rx.create ~ssrc:7 ~pli_timeout_ns:100 () in
  feed_at rx 0 (frames_of (make_source ()) 4);
  Alcotest.(check bool) "pli after starvation" true (Rx.poll_pli rx ~time_ns:1_000_000);
  Alcotest.(check bool) "throttled" false (Rx.poll_pli rx ~time_ns:1_000_050)

let rx_fps_series () =
  let rx = Rx.create ~ssrc:7 () in
  let src = make_source () in
  List.iteri
    (fun i f -> List.iter (rx_receive rx ~time_ns:(i * 33_333_333)) f.Vs.packets)
    (frames_of src 90);
  let bins = Scallop_util.Timeseries.bins (Rx.fps_series rx) in
  Alcotest.(check bool) "roughly 30 fps in first bin" true
    (Array.length bins > 0 && snd bins.(0) >= 29.0 && snd bins.(0) <= 31.0)

(* A frame whose packets straddle the 16-bit wrap (..., 65535, 0, ...)
   is as contiguous as any other and must decode. *)
let rx_frame_straddling_wrap_decodes () =
  let rx = Rx.create ~ssrc:7 () in
  let key = List.hd (frames_of (make_source ()) 1) in
  let n = List.length key.Vs.packets in
  Alcotest.(check bool) "multi-packet key frame" true (n >= 2);
  List.iteri
    (fun i p ->
      rx_receive rx ~time_ns:0 (Rtp.Packet.with_sequence p (Rtp.Packet.seq_add 65535 (i + 1 - n / 2))))
    key.Vs.packets;
  Alcotest.(check int) "decoded" 1 (Rx.frames_decoded rx);
  Alcotest.(check int) "nothing pending" 0 (Rx.frames_incomplete rx)

(* A receiver costs what its media uses: the 2,048-entry sequence ring
   is allocated by the first packet, so a connection no media reaches
   (most of a large meeting's legs, while rate adaptation or churn keeps
   them idle) holds only its empty tables. *)
let rx_fresh_footprint () =
  let rx = Rx.create ~ssrc:7 () in
  let fresh_words = Obj.reachable_words (Obj.repr rx) in
  Alcotest.(check bool)
    (Printf.sprintf "fresh receiver %d words <= 1024" fresh_words)
    true (fresh_words <= 1_024);
  feed rx (frames_of (make_source ()) 1);
  Alcotest.(check bool) "the first packet allocates the sequence ring" true
    (Obj.reachable_words (Obj.repr rx) >= fresh_words + 2_048)

(* --- audio receiver -------------------------------------------------------------------- *)

let audio_pkt ~seq ~ts = Rtp.Packet.make ~payload_type:111 ~sequence:seq ~timestamp:ts ~ssrc:9 (Bytes.create 128)

let audio_rx_counts_loss () =
  let rx = Codec.Audio_receiver.create ~ssrc:9 in
  List.iteri
    (fun i seq -> arx_receive rx ~time_ns:(i * 20_000_000) (audio_pkt ~seq ~ts:(seq * 960)))
    [ 10; 11; 13; 14; 17 ];
  Alcotest.(check int) "received" 5 (Codec.Audio_receiver.packets_received rx);
  Alcotest.(check int) "lost" 3 (Codec.Audio_receiver.packets_lost rx);
  Alcotest.(check (float 0.001)) "rate" 0.375 (Codec.Audio_receiver.loss_rate rx)

let audio_rx_late_fills_gap () =
  let rx = Codec.Audio_receiver.create ~ssrc:9 in
  List.iteri
    (fun i seq -> arx_receive rx ~time_ns:(i * 20_000_000) (audio_pkt ~seq ~ts:(seq * 960)))
    [ 1; 3; 2 ];
  Alcotest.(check int) "reorder recovered" 0 (Codec.Audio_receiver.packets_lost rx)

let audio_rx_duplicates_and_other_ssrc () =
  let rx = Codec.Audio_receiver.create ~ssrc:9 in
  arx_receive rx ~time_ns:0 (audio_pkt ~seq:5 ~ts:0);
  arx_receive rx ~time_ns:1 (audio_pkt ~seq:5 ~ts:0);
  arx_receive rx ~time_ns:2
    (Rtp.Packet.make ~payload_type:111 ~sequence:6 ~timestamp:0 ~ssrc:999 (Bytes.create 10));
  Alcotest.(check int) "one fresh" 1 (Codec.Audio_receiver.packets_received rx);
  Alcotest.(check int) "duplicate counted" 1 (Codec.Audio_receiver.duplicates rx)

let audio_rx_jitter () =
  let rx = Codec.Audio_receiver.create ~ssrc:9 in
  (* perfectly paced packets -> jitter stays near zero *)
  for i = 0 to 99 do
    arx_receive rx ~time_ns:(i * 20_000_000) (audio_pkt ~seq:i ~ts:(i * 960))
  done;
  Alcotest.(check bool) "paced jitter ~0" true (Codec.Audio_receiver.jitter_ms rx < 0.1);
  (* a 15 ms arrival spike moves the estimate *)
  arx_receive rx ~time_ns:((100 * 20_000_000) + 15_000_000)
    (audio_pkt ~seq:100 ~ts:(100 * 960));
  Alcotest.(check bool) "spike visible" true (Codec.Audio_receiver.jitter_ms rx > 0.5)

let audio_rx_fresh_footprint () =
  let rx = Codec.Audio_receiver.create ~ssrc:9 in
  let fresh_words = Obj.reachable_words (Obj.repr rx) in
  Alcotest.(check bool)
    (Printf.sprintf "fresh receiver %d words <= 256" fresh_words)
    true (fresh_words <= 256);
  arx_receive rx ~time_ns:0 (audio_pkt ~seq:1 ~ts:0);
  Alcotest.(check bool) "the first packet allocates the sequence ring" true
    (Obj.reachable_words (Obj.repr rx) >= fresh_words + 512)

(* --- rate policy ---------------------------------------------------------------------- *)

let policy_downgrades () =
  let t estimate = Rp.select_decode_target ~current:Dd.DT_30fps ~estimate_bps:estimate ~full_bitrate_bps:2_500_000 in
  Alcotest.(check bool) "plenty -> 30" true (t 3_000_000 = Dd.DT_30fps);
  Alcotest.(check bool) "mid -> 15" true (t 1_800_000 = Dd.DT_15fps);
  Alcotest.(check bool) "low -> 7.5" true (t 800_000 = Dd.DT_7_5fps)

let policy_upgrade_needs_headroom () =
  let from_75 estimate =
    Rp.select_decode_target ~current:Dd.DT_7_5fps ~estimate_bps:estimate ~full_bitrate_bps:2_500_000
  in
  (* 7.5 fps costs 937.5 kb/s: a bare affordability of 15 fps isn't enough *)
  Alcotest.(check bool) "barely affordable holds" true (from_75 1_000_000 = Dd.DT_7_5fps);
  Alcotest.(check bool) "headroom upgrades one step" true (from_75 1_600_000 = Dd.DT_15fps)

let policy_single_step_up () =
  let r =
    Rp.select_decode_target ~current:Dd.DT_7_5fps ~estimate_bps:10_000_000
      ~full_bitrate_bps:2_500_000
  in
  Alcotest.(check bool) "one step at a time" true (r = Dd.DT_15fps)

let policy_shares () =
  Alcotest.(check (float 1e-9)) "30" 1.0 (Rp.layer_bitrate_share Dd.DT_30fps);
  Alcotest.(check (float 1e-9)) "15" 0.625 (Rp.layer_bitrate_share Dd.DT_15fps);
  Alcotest.(check (float 1e-9)) "7.5" 0.375 (Rp.layer_bitrate_share Dd.DT_7_5fps)

let () =
  Alcotest.run "codec"
    [
      ( "video source",
        [
          Alcotest.test_case "cycle pattern" `Quick source_cycle_pattern;
          Alcotest.test_case "first frame keyframe" `Quick source_first_frame_is_keyframe;
          Alcotest.test_case "keyframe structure" `Quick source_keyframe_carries_structure;
          Alcotest.test_case "frame numbers" `Quick source_frame_numbers_increment;
          Alcotest.test_case "sequence continuity" `Quick source_sequence_continuous;
          Alcotest.test_case "mtu respected" `Quick source_respects_mtu;
          Alcotest.test_case "bitrate tracks target" `Quick source_bitrate_tracks_target;
          Alcotest.test_case "marker on last packet" `Quick source_marker_on_last_packet;
          Alcotest.test_case "pli forces keyframe" `Quick source_pli_forces_keyframe;
          Alcotest.test_case "set bitrate" `Quick source_set_bitrate;
        ] );
      ("audio source", [ Alcotest.test_case "cadence" `Quick audio_cadence ]);
      ( "receiver",
        [
          Alcotest.test_case "decodes clean stream" `Quick rx_decodes_clean_stream;
          Alcotest.test_case "ignores other ssrc" `Quick rx_ignores_other_ssrc;
          Alcotest.test_case "gap triggers nack" `Quick rx_gap_triggers_nack;
          Alcotest.test_case "retransmission fills gap" `Quick rx_retransmission_fills_gap;
          Alcotest.test_case "benign duplicate" `Quick rx_same_packet_twice_harmless;
          Alcotest.test_case "conflicting duplicate freezes" `Quick rx_conflicting_duplicate_freezes;
          Alcotest.test_case "keyframe unfreezes" `Quick rx_keyframe_unfreezes;
          Alcotest.test_case "layer-dropped stream decodes" `Quick rx_layer_dropped_stream_decodes;
          Alcotest.test_case "missing reference undecodable" `Quick rx_missing_reference_undecodable;
          Alcotest.test_case "pli on starvation" `Quick rx_pli_on_starvation;
          Alcotest.test_case "fps series" `Quick rx_fps_series;
          Alcotest.test_case "frame straddling seq wrap" `Quick rx_frame_straddling_wrap_decodes;
          Alcotest.test_case "fresh footprint" `Quick rx_fresh_footprint;
        ] );
      ( "audio receiver",
        [
          Alcotest.test_case "counts loss" `Quick audio_rx_counts_loss;
          Alcotest.test_case "late packet fills gap" `Quick audio_rx_late_fills_gap;
          Alcotest.test_case "duplicates and ssrc filter" `Quick audio_rx_duplicates_and_other_ssrc;
          Alcotest.test_case "jitter" `Quick audio_rx_jitter;
          Alcotest.test_case "fresh footprint" `Quick audio_rx_fresh_footprint;
        ] );
      ( "rate policy",
        [
          Alcotest.test_case "downgrades" `Quick policy_downgrades;
          Alcotest.test_case "upgrade needs headroom" `Quick policy_upgrade_needs_headroom;
          Alcotest.test_case "single step up" `Quick policy_single_step_up;
          Alcotest.test_case "shares" `Quick policy_shares;
        ] );
    ]
