module Addr = Scallop_util.Addr
module Rng = Scallop_util.Rng
module Timeseries = Scallop_util.Timeseries
module Trace = Scallop_obs.Trace
module Engine = Netsim.Engine
module Network = Netsim.Network
module Dgram = Netsim.Dgram
module Packet = Rtp.Packet

type feedback_mode = Remb | Twcc

type config = {
  ip : int;
  send_video : bool;
  send_audio : bool;
  video_bitrate_bps : int;
  feedback_mode : feedback_mode;
  sr_interval_ns : int;
  remb_poll_interval_ns : int;
  nack_poll_interval_ns : int;
  stun_interval_ns : int;
  rr_interval_ns : int;
}

let default_config ~ip =
  {
    ip;
    send_video = true;
    send_audio = true;
    video_bitrate_bps = 2_500_000;
    feedback_mode = Remb;
    sr_interval_ns = 520_000_000;
    remb_poll_interval_ns = 100_000_000;
    nack_poll_interval_ns = 20_000_000;
    stun_interval_ns = 2_500_000_000;
    rr_interval_ns = 15_000_000_000;
  }

let history_size = 1024

type kind = Send | Recv

type connection = {
  local : Addr.t;
  remote : Addr.t;
  kind : kind;
  video_ssrc : int;
  audio_ssrc : int;
  (* sender side *)
  video_src : Codec.Video_source.t option;
  simulcast_src : Codec.Simulcast_source.t option;
  audio_src : Codec.Audio_source.t option;
  history : Packet.t option array;  (** empty on a receive connection *)
  send_fps : Timeseries.t;
  mutable retransmissions : int;
  (* receiver side *)
  video_rx : Codec.Video_receiver.t option;
  audio_rx : Codec.Audio_receiver.t option;
  gcc : Gcc.Estimator.t option;
  mutable twccs_sent : int;
  mutable twcc_deltas : int list;  (** pending arrival deltas, newest first *)
  mutable twcc_base_seq : int;
  mutable twcc_last_arrival : int;
  mutable srs_received : int;
  mutable stun_rtt : float option;
  stun_pending : (bytes, int) Hashtbl.t;
  mutable connected : bool;
      (** ICE state: media is held until the first connectivity check
          succeeds, as in real WebRTC *)
  mutable open_ : bool;
}

type t = {
  engine : Engine.t;
  network : Network.t;
  rng : Rng.t;
  cfg : config;
  mutable connections : connection list;
  mutable next_port : int;
  mutable tx_hook : time_ns:int -> Dgram.t -> unit;
  mutable rx_hook : time_ns:int -> Dgram.t -> unit;
}

let create engine network rng cfg =
  {
    engine;
    network;
    rng;
    cfg;
    connections = [];
    next_port = 20_000;
    tx_hook = (fun ~time_ns:_ _ -> ());
    rx_hook = (fun ~time_ns:_ _ -> ());
  }

let ip t = t.cfg.ip

let fresh_port t =
  let p = t.next_port in
  t.next_port <- t.next_port + 1;
  p
let set_tx_hook t f = t.tx_hook <- f
let set_rx_hook t f = t.rx_hook <- f

let transmit t conn payload =
  let dgram = Dgram.v ~src:conn.local ~dst:conn.remote payload in
  t.tx_hook ~time_ns:(Engine.now t.engine) dgram;
  Network.send t.network dgram

let send_rtcp t conn packets = transmit t conn (Rtp.Rtcp.serialize_compound packets)

(* --- sender side --------------------------------------------------------- *)

let remember conn pkt = conn.history.(pkt.Packet.sequence mod history_size) <- Some pkt

(* WebRTC's pacer spreads a frame's packets instead of bursting them onto
   the wire; 500 µs spacing keeps even key frames inside a frame interval
   and stops audio from queueing behind video bursts. *)
let pacing_gap_ns = 500_000

let send_video_frame t conn src =
  let now = Engine.now t.engine in
  let frame = Codec.Video_source.next_frame src ~time_ns:now in
  Timeseries.incr conn.send_fps now;
  let n = List.length frame.Codec.Video_source.packets in
  (* large (key) frames compress their spacing so the whole frame still
     leaves before the next frame interval *)
  let gap = if n <= 1 then 0 else min pacing_gap_ns (28_000_000 / (n - 1)) in
  List.iteri
    (fun i pkt ->
      remember conn pkt;
      if i = 0 then transmit t conn (Packet.serialize pkt)
      else
        Engine.schedule t.engine ~after:(i * gap) (fun () ->
            if conn.open_ then transmit t conn (Packet.serialize pkt)))
    frame.Codec.Video_source.packets

let send_simulcast_frames t conn src =
  let now = Engine.now t.engine in
  Timeseries.incr conn.send_fps now;
  List.iter
    (fun (frame : Codec.Video_source.frame) ->
      let n = List.length frame.Codec.Video_source.packets in
      let gap = if n <= 1 then 0 else min pacing_gap_ns (28_000_000 / (n - 1)) in
      List.iteri
        (fun i pkt ->
          if i = 0 then transmit t conn (Packet.serialize pkt)
          else
            Engine.schedule t.engine ~after:(i * gap) (fun () ->
                if conn.open_ then transmit t conn (Packet.serialize pkt)))
        frame.Codec.Video_source.packets)
    (Codec.Simulcast_source.next_frames src ~time_ns:now)

let send_audio_packet t conn src =
  let now = Engine.now t.engine in
  let pkt = Codec.Audio_source.next_packet src ~time_ns:now in
  remember conn pkt;
  transmit t conn (Packet.serialize pkt)

let sender_report t conn =
  let now = Engine.now t.engine in
  let info ssrc clock =
    {
      Rtp.Rtcp.ntp_sec = now / 1_000_000_000;
      ntp_frac = now mod 1_000_000_000;
      rtp_ts = now / clock land 0xFFFFFFFF;
      packet_count = 0;
      octet_count = 0;
    }
    |> fun i -> Rtp.Rtcp.Sender_report { ssrc; info = i; reports = [] }
  in
  let srs =
    (if conn.video_src <> None then [ info conn.video_ssrc 11111 ] else [])
    @ if conn.audio_src <> None then [ info conn.audio_ssrc 20833 ] else []
  in
  if srs <> [] then
    send_rtcp t conn (srs @ [ Rtp.Rtcp.Sdes [ (conn.video_ssrc, [ Rtp.Rtcp.Cname "scallop-client" ]) ] ])

(* a receive connection keeps no history: a NACK sent to it is ignored *)
let retransmit t conn seqs =
  if Array.length conn.history > 0 then
    List.iter
      (fun seq ->
        match conn.history.(seq mod history_size) with
        | Some pkt when pkt.Packet.sequence = seq ->
            conn.retransmissions <- conn.retransmissions + 1;
            transmit t conn (Packet.serialize pkt)
        | Some _ | None -> ())
      seqs

(* --- receiver side ------------------------------------------------------- *)

let report_block conn : Rtp.Rtcp.report_block list =
  match conn.video_rx with
  | None -> []
  | Some rx ->
      [
        {
          Rtp.Rtcp.ssrc = conn.video_ssrc;
          fraction_lost = 0;
          cumulative_lost = 0;
          highest_seq = 0;
          jitter = int_of_float (Codec.Video_receiver.jitter_ms rx *. 90.0);
          last_sr = 0;
          dlsr = 0;
        };
      ]

let poll_feedback t conn =
  if t.cfg.feedback_mode = Twcc then ()
  else
  match conn.gcc with
  | None -> ()
  | Some gcc -> (
      let now = Engine.now t.engine in
      match Gcc.Estimator.poll_remb gcc ~time_ns:now with
      | None -> ()
      | Some estimate ->
          send_rtcp t conn
            [
              Rtp.Rtcp.Receiver_report { ssrc = conn.video_ssrc; reports = report_block conn };
              Rtp.Rtcp.Remb
                { sender_ssrc = conn.video_ssrc; bitrate_bps = estimate; ssrcs = [ conn.video_ssrc ] };
            ])

(* Sender-driven transport-wide feedback: one TWCC packet per ~15 media
   packets, carrying per-packet arrival deltas (the §5.2 comparison). *)
let twcc_batch = 15

let note_twcc t conn ~time_ns seq =
  if t.cfg.feedback_mode = Twcc then begin
    if conn.twcc_deltas = [] then begin
      conn.twcc_base_seq <- seq;
      conn.twcc_last_arrival <- time_ns
    end;
    let delta_ticks = min 255 ((time_ns - conn.twcc_last_arrival) / 250_000) in
    conn.twcc_last_arrival <- time_ns;
    conn.twcc_deltas <- delta_ticks :: conn.twcc_deltas;
    if List.length conn.twcc_deltas >= twcc_batch then begin
      conn.twccs_sent <- conn.twccs_sent + 1;
      send_rtcp t conn
        [
          Rtp.Rtcp.Twcc
            {
              sender_ssrc = 0;
              media_ssrc = conn.video_ssrc;
              base_seq = conn.twcc_base_seq;
              fb_count = conn.twccs_sent land 0xFF;
              deltas = List.rev conn.twcc_deltas;
            };
        ];
      conn.twcc_deltas <- []
    end
  end

(* standalone receiver reports, sent sparsely between REMB compounds *)
let send_plain_rr t conn =
  send_rtcp t conn
    [ Rtp.Rtcp.Receiver_report { ssrc = conn.video_ssrc; reports = report_block conn } ]

let poll_loss_recovery t conn =
  match conn.video_rx with
  | None -> ()
  | Some rx ->
      let now = Engine.now t.engine in
      let missing = Codec.Video_receiver.poll_nacks rx ~time_ns:now in
      if missing <> [] then
        send_rtcp t conn
          [ Rtp.Rtcp.Nack { sender_ssrc = 0; media_ssrc = conn.video_ssrc; lost = missing } ];
      if Codec.Video_receiver.poll_pli rx ~time_ns:now then begin
        send_rtcp t conn [ Rtp.Rtcp.Pli { sender_ssrc = 0; media_ssrc = conn.video_ssrc } ]
      end

let send_stun_check t conn =
  let tid = Bytes.init 12 (fun _ -> Char.chr (Rng.int t.rng 256)) in
  Hashtbl.replace conn.stun_pending tid (Engine.now t.engine);
  let req = Rtp.Stun.binding_request ~username:"scallop" ~transaction_id:tid () in
  transmit t conn (Rtp.Stun.serialize req)

(* --- QoE ------------------------------------------------------------------ *)

module Qoe = Scallop_obs.Qoe

(* Attach per-stream QoE collectors to a receive connection's decoders.
   The controller calls this when it creates the stream leg — it is the
   only party that knows the (meeting, receiver, sender) identity of the
   media this connection carries. *)
let attach_qoe conn ~meeting ~receiver ~sender ~media =
  let key kind =
    {
      Qoe.k_meeting = meeting;
      k_receiver = receiver;
      k_sender = sender;
      k_media = media;
      k_kind = kind;
    }
  in
  let attach collector =
    (* the collector learns its host so attribution can recognize the
       victim's own access links ("up:<ip>"/"down:<ip>") *)
    Qoe.set_host collector (Addr.ip_to_string conn.local.Addr.ip);
    collector
  in
  Option.iter
    (fun rx ->
      Codec.Video_receiver.set_qoe rx (attach (Qoe.collector (key Qoe.Video))))
    conn.video_rx;
  Option.iter
    (fun rx ->
      Codec.Audio_receiver.set_qoe rx (attach (Qoe.collector (key Qoe.Audio))))
    conn.audio_rx

(* --- dispatch ------------------------------------------------------------- *)

let handle_rtp t conn (dgram : Dgram.t) =
  let buf = dgram.Dgram.payload in
  (* read in place, as the data-plane fast path does: no record,
     extension list or payload copy per replica *)
  match Packet.View.of_bytes ~ext_id:Av1.Dd.extension_id buf with
  | exception Rtp.Wire.Parse_error _ -> ()
  | (pkt : Packet.View.t) ->
      let now = Engine.now t.engine in
      if conn.kind = Recv then note_twcc t conn ~time_ns:now pkt.sequence;
      let video = pkt.ssrc = conn.video_ssrc in
      let qoe =
        if video then begin
          let qoe =
            match conn.video_rx with
            | Some rx ->
                Codec.Video_receiver.receive rx ~time_ns:now pkt;
                Codec.Video_receiver.qoe rx
            | None -> None
          in
          (match conn.gcc with
          | Some gcc ->
              Gcc.Estimator.on_packet gcc ~time_ns:now ~rtp_ts:pkt.timestamp
                ~size:(Bytes.length buf)
          | None -> ());
          qoe
        end
        else if pkt.ssrc = conn.audio_ssrc then
          match conn.audio_rx with
          | Some rx ->
              Codec.Audio_receiver.receive rx ~time_ns:now pkt;
              Codec.Audio_receiver.qoe rx
          | None -> None
        else None
      in
      if dgram.Dgram.trace >= 0 then begin
        (* anchor the packet's trace id on the receiver's QoE timeline so
           attribution can walk from a burn back to these exact packets *)
        (match qoe with
        | Some q -> Qoe.note_trace q ~time_ns:now ~trace:dgram.Dgram.trace
        | None -> ());
        (* terminal hop of the causal timeline: the packet reached the
           receiving endpoint and (for video) advanced the decoder *)
        if Trace.enabled Trace.Packet then
          Trace.instant ~ts:now ~trace:dgram.Dgram.trace ~cat:"client" "client_rx"
            ~args:
              [
                ("ssrc", Trace.I pkt.ssrc);
                ("seq", Trace.I pkt.sequence);
                ( "frames_decoded",
                  Trace.I
                    (match conn.video_rx with
                    | Some rx when video -> Codec.Video_receiver.frames_decoded rx
                    | Some _ | None -> -1) );
              ]
      end

let handle_rtcp t conn buf =
  match Rtp.Rtcp.parse_compound buf with
  | exception Rtp.Wire.Parse_error _ -> ()
  | packets ->
      List.iter
        (fun p ->
          match p with
          | Rtp.Rtcp.Remb { bitrate_bps; _ } ->
              (* simulcast senders keep all renditions running; the SFU
                 picks which one a receiver gets *)
              Option.iter
                (fun src ->
                  Codec.Video_source.set_bitrate src (min bitrate_bps t.cfg.video_bitrate_bps))
                conn.video_src
          | Rtp.Rtcp.Nack { lost; _ } ->
              (* simulcast splicing invalidates retransmissions; recover by
                 refreshing the active rendition instead *)
              (match conn.simulcast_src with
              | Some src -> Codec.Simulcast_source.request_keyframe src ~rendition:0
              | None -> retransmit t conn lost)
          | Rtp.Rtcp.Pli { media_ssrc; _ } -> (
              Option.iter Codec.Video_source.request_keyframe conn.video_src;
              match conn.simulcast_src with
              | Some src -> (
                  match Codec.Simulcast_source.rendition_of_ssrc src media_ssrc with
                  | Some rendition -> Codec.Simulcast_source.request_keyframe src ~rendition
                  | None -> ())
              | None -> ())
          | Rtp.Rtcp.Sender_report _ -> conn.srs_received <- conn.srs_received + 1
          | Rtp.Rtcp.Twcc _ ->
              (* sender-driven congestion control is out of scope for the
                 endpoint model; the feedback is counted at the SFU *)
              ()
          | Rtp.Rtcp.Receiver_report _ | Rtp.Rtcp.Sdes _ | Rtp.Rtcp.Bye _ -> ())
        packets

let handle_stun t conn buf =
  match Rtp.Stun.parse buf with
  | exception Rtp.Wire.Parse_error _ -> ()
  | msg -> (
      match msg.Rtp.Stun.cls with
      | Rtp.Stun.Request ->
          let reply =
            Rtp.Stun.binding_success ~transaction_id:msg.Rtp.Stun.transaction_id
              ~mapped_ip:conn.remote.Addr.ip ~mapped_port:conn.remote.Addr.port
          in
          transmit t conn (Rtp.Stun.serialize reply)
      | Rtp.Stun.Success_response -> (
          match Hashtbl.find_opt conn.stun_pending msg.Rtp.Stun.transaction_id with
          | Some sent_at ->
              Hashtbl.remove conn.stun_pending msg.Rtp.Stun.transaction_id;
              conn.connected <- true;
              conn.stun_rtt <-
                Some (float_of_int (Engine.now t.engine - sent_at) /. 1e6)
          | None -> ())
      | Rtp.Stun.Error_response | Rtp.Stun.Indication -> ())

let deliver t conn (dgram : Dgram.t) =
  if conn.open_ then begin
    t.rx_hook ~time_ns:(Engine.now t.engine) dgram;
    match Rtp.Demux.classify dgram.payload with
    | Rtp.Demux.Rtp_media -> handle_rtp t conn dgram
    | Rtp.Demux.Rtcp_feedback -> handle_rtcp t conn dgram.payload
    | Rtp.Demux.Stun_packet -> handle_stun t conn dgram.payload
    | Rtp.Demux.Unknown -> ()
  end

(* --- connection setup ----------------------------------------------------- *)

let start_timers t conn =
  let alive f () =
    if conn.open_ then begin
      f ();
      true
    end
    else false
  in
  (* media and feedback wait for ICE to connect *)
  let when_connected f () = if conn.connected then f () in
  (match conn.video_src with
  | Some src ->
      Engine.every t.engine ~interval:33_333_333
        (alive (when_connected (fun () -> send_video_frame t conn src)))
  | None -> ());
  (match conn.simulcast_src with
  | Some src ->
      Engine.every t.engine ~interval:33_333_333
        (alive (when_connected (fun () -> send_simulcast_frames t conn src)))
  | None -> ());
  (match conn.audio_src with
  | Some src ->
      Engine.every t.engine ~interval:Codec.Audio_source.interval_ns
        (alive (when_connected (fun () -> send_audio_packet t conn src)))
  | None -> ());
  if conn.kind = Send then
    Engine.every t.engine ~interval:t.cfg.sr_interval_ns
      (alive (when_connected (fun () -> sender_report t conn)));
  if conn.kind = Recv then begin
    Engine.every t.engine ~interval:t.cfg.remb_poll_interval_ns (alive (fun () -> poll_feedback t conn));
    Engine.every t.engine ~interval:t.cfg.nack_poll_interval_ns
      (alive (fun () -> poll_loss_recovery t conn));
    Engine.every t.engine ~interval:t.cfg.rr_interval_ns
      (alive (when_connected (fun () -> send_plain_rr t conn)))
  end;
  (* the first connectivity check fires immediately (ICE nomination);
     periodic keepalive checks follow at jittered intervals so clients do
     not synchronize *)
  send_stun_check t conn;
  let stun_start = Engine.now t.engine + Rng.int t.rng t.cfg.stun_interval_ns in
  Engine.every t.engine ~start:stun_start ~interval:t.cfg.stun_interval_ns
    (alive (fun () -> send_stun_check t conn))

let make_connection t ~kind ?send_audio ?video_bitrate ?(simulcast = false) ~local_port
    ~remote ~video_ssrc ~audio_ssrc () =
  let local = Addr.v t.cfg.ip local_port in
  let send_audio = Option.value send_audio ~default:t.cfg.send_audio in
  let video_bitrate = Option.value video_bitrate ~default:t.cfg.video_bitrate_bps in
  let conn =
    {
      local;
      remote;
      kind;
      video_ssrc;
      audio_ssrc;
      video_src =
        (if kind = Send && t.cfg.send_video && not simulcast then
           Some
             (Codec.Video_source.create (Rng.split t.rng)
                {
                  (Codec.Video_source.default_config ~ssrc:video_ssrc) with
                  target_bitrate_bps = video_bitrate;
                })
         else None);
      simulcast_src =
        (if kind = Send && t.cfg.send_video && simulcast then
           Some
             (Codec.Simulcast_source.create (Rng.split t.rng)
                (Codec.Simulcast_source.default_config ~base_ssrc:video_ssrc))
         else None);
      audio_src =
        (if kind = Send && send_audio then
           Some (Codec.Audio_source.create (Rng.split t.rng) (Codec.Audio_source.default_config ~ssrc:audio_ssrc))
         else None);
      history = (if kind = Send then Array.make history_size None else [||]);
      send_fps = Timeseries.create ~bin_ns:1_000_000_000;
      retransmissions = 0;
      video_rx = (if kind = Recv then Some (Codec.Video_receiver.create ~ssrc:video_ssrc ()) else None);
      audio_rx = (if kind = Recv then Some (Codec.Audio_receiver.create ~ssrc:audio_ssrc) else None);
      gcc = (if kind = Recv then Some (Gcc.Estimator.create ()) else None);
      twccs_sent = 0;
      twcc_deltas = [];
      twcc_base_seq = 0;
      twcc_last_arrival = 0;
      srs_received = 0;
      stun_rtt = None;
      stun_pending = Hashtbl.create 8;
      connected = false;
      open_ = true;
    }
  in
  Network.bind t.network local (deliver t conn);
  t.connections <- conn :: t.connections;
  start_timers t conn;
  conn

let add_send_connection ?send_audio ?video_bitrate t ~local_port ~remote ~video_ssrc
    ~audio_ssrc =
  make_connection t ~kind:Send ?send_audio ?video_bitrate ~local_port ~remote ~video_ssrc
    ~audio_ssrc ()

let add_simulcast_send_connection t ~local_port ~remote ~base_ssrc ~audio_ssrc =
  make_connection t ~kind:Send ~simulcast:true ~local_port ~remote ~video_ssrc:base_ssrc
    ~audio_ssrc ()

let add_recv_connection t ~local_port ~remote ~video_ssrc ~audio_ssrc =
  make_connection t ~kind:Recv ~local_port ~remote ~video_ssrc ~audio_ssrc ()

let close_connection t conn =
  (* idempotent: two controller instances replaying the same intent (a
     promoted standby re-applying a journaled leave the primary already
     executed) may both close the shared connection *)
  if conn.open_ then begin
    (* say goodbye (RFC 3550 BYE) before tearing down *)
    if conn.connected then
      send_rtcp t conn [ Rtp.Rtcp.Bye { ssrcs = [ conn.video_ssrc; conn.audio_ssrc ]; reason = None } ];
    conn.open_ <- false;
    Network.unbind t.network conn.local;
    t.connections <- List.filter (fun c -> c != conn) t.connections
  end

let connected conn = conn.connected

let connections t = t.connections
let local_addr conn = conn.local
let remote_addr conn = conn.remote

let video_bitrate conn =
  match conn.video_src with Some src -> Codec.Video_source.bitrate src | None -> 0

let retransmissions conn = conn.retransmissions
let send_fps_series conn = if conn.kind = Send then Some conn.send_fps else None
let receiver conn = conn.video_rx
let gcc_estimate conn = Option.map Gcc.Estimator.estimate_bps conn.gcc
let audio_packets_received conn =
  match conn.audio_rx with
  | Some rx -> Codec.Audio_receiver.packets_received rx
  | None -> 0

let audio_receiver conn = conn.audio_rx
let srs_received conn = conn.srs_received
let stun_rtt_ms conn = conn.stun_rtt
