module Addr = Scallop_util.Addr
module Rng = Scallop_util.Rng
module Engine = Netsim.Engine
module Network = Netsim.Network
module Dgram = Netsim.Dgram
module Cpu_queue = Netsim.Cpu_queue
module Packet = Rtp.Packet
module Rtcp = Rtp.Rtcp
module Dd = Av1.Dd

type meeting_id = int
type participant_id = int

let history_size = 1024

type out_stream = {
  dst : Addr.t;  (** receiver client's local addr for this leg *)
  sfu_port : int;
  mutable next_video_seq : int;
  mutable next_audio_seq : int;
  mutable target : Dd.decode_target;
  history : Packet.t option array;
  mutable estimate_bps : int;
  mutable packets_out : int;
}

type participant = {
  id : participant_id;
  meeting : meeting_id;
  client : Webrtc.Client.t;
  uplink_port : int;
  mutable client_send_addr : Addr.t option;  (** for upstream feedback *)
  video_ssrc : int;
  audio_ssrc : int;
  full_bitrate : int;
  sends_media : bool;
  outs : (participant_id, out_stream) Hashtbl.t;  (** this sender's legs *)
  mutable last_upstream_remb : int;
}

type t = {
  engine : Engine.t;
  network : Network.t;
  rng : Rng.t;
  ip : int;
  cpu : Cpu_queue.t;
  participants : (participant_id, participant) Hashtbl.t;
  meetings : (meeting_id, participant_id list ref) Hashtbl.t;
  mutable next_port : int;
  mutable next_id : int;
  mutable next_meeting : int;
  mutable packets_processed : int;
  mutable bytes_processed : int;
}

let create engine network rng ~ip ?(cpu = Cpu_queue.default_server) () =
  {
    engine;
    network;
    rng;
    ip;
    cpu = Cpu_queue.create engine (Rng.split rng) cpu;
    participants = Hashtbl.create 64;
    meetings = Hashtbl.create 16;
    next_port = 30_000;
    next_id = 0;
    next_meeting = 0;
    packets_processed = 0;
    bytes_processed = 0;
  }

let fresh_port t =
  let p = t.next_port in
  t.next_port <- t.next_port + 1;
  p

let create_meeting t =
  let id = t.next_meeting in
  t.next_meeting <- t.next_meeting + 1;
  Hashtbl.replace t.meetings id (ref []);
  id

let account t buf =
  t.packets_processed <- t.packets_processed + 1;
  t.bytes_processed <- t.bytes_processed + Bytes.length buf + 42

let send_from t ~port ~dst payload =
  Network.send t.network (Dgram.v ~src:(Addr.v t.ip port) ~dst payload)

(* --- media path ----------------------------------------------------------- *)

let template_of pkt =
  match Packet.find_extension pkt Dd.extension_id with
  | None -> None
  | Some data -> ( try Some (Dd.parse data).Dd.template_id with Rtp.Wire.Parse_error _ -> None)

(* Re-originate one media packet on an output leg. The split proxy owns
   the leg's sequence space, so drops never leave gaps. *)
let emit_media t out (pkt : Packet.t) ~is_video =
  let seq =
    if is_video then begin
      let s = out.next_video_seq in
      out.next_video_seq <- Packet.seq_succ s;
      s
    end
    else begin
      let s = out.next_audio_seq in
      out.next_audio_seq <- Packet.seq_succ s;
      s
    end
  in
  let pkt' = Packet.with_sequence pkt seq in
  if is_video then out.history.(seq mod history_size) <- Some pkt';
  let buf = Packet.serialize pkt' in
  Cpu_queue.submit t.cpu ~size:(Bytes.length buf) (fun () ->
      account t buf;
      out.packets_out <- out.packets_out + 1;
      send_from t ~port:out.sfu_port ~dst:out.dst buf)

let forward_media t sender buf =
  Cpu_queue.submit t.cpu ~size:(Bytes.length buf) (fun () ->
      account t buf;
      match Packet.parse buf with
      | exception Rtp.Wire.Parse_error _ -> ()
      | pkt ->
          let is_video = pkt.Packet.ssrc = sender.video_ssrc in
          let template = if is_video then template_of pkt else None in
          Hashtbl.iter
            (fun _ out ->
              let keep =
                match template with
                | Some id -> Dd.template_in_target_l1t3 id out.target
                | None -> true
              in
              if keep then emit_media t out pkt ~is_video)
            sender.outs)

(* Forward a sender's RTCP (SRs, SDES) to every receiver leg. *)
let forward_sender_rtcp t sender buf =
  Cpu_queue.submit t.cpu ~size:(Bytes.length buf) (fun () ->
      account t buf;
      Hashtbl.iter
        (fun _ out ->
          Cpu_queue.submit t.cpu ~size:(Bytes.length buf) (fun () ->
              account t buf;
              send_from t ~port:out.sfu_port ~dst:out.dst buf))
        sender.outs)

let answer_stun t ~port ~src buf =
  Cpu_queue.submit t.cpu ~size:(Bytes.length buf) (fun () ->
      account t buf;
      match Rtp.Stun.parse buf with
      | exception Rtp.Wire.Parse_error _ -> ()
      | msg when msg.Rtp.Stun.cls = Rtp.Stun.Request ->
          let reply =
            Rtp.Stun.binding_success ~transaction_id:msg.Rtp.Stun.transaction_id
              ~mapped_ip:src.Addr.ip ~mapped_port:src.Addr.port
          in
          send_from t ~port ~dst:src (Rtp.Stun.serialize reply)
      | _ -> ())

(* --- uplink handler (media + sender RTCP from one participant) ------------ *)

let uplink_handler t sender (dgram : Dgram.t) =
  if sender.client_send_addr = None then sender.client_send_addr <- Some dgram.src;
  match Rtp.Demux.classify dgram.payload with
  | Rtp.Demux.Rtp_media -> forward_media t sender dgram.payload
  | Rtp.Demux.Rtcp_feedback -> forward_sender_rtcp t sender dgram.payload
  | Rtp.Demux.Stun_packet -> answer_stun t ~port:sender.uplink_port ~src:dgram.src dgram.payload
  | Rtp.Demux.Unknown -> ()

(* --- downstream feedback handler (per out-stream leg) ---------------------- *)

let upstream_remb_interval_ns = 1_000_000_000

let maybe_send_upstream_remb t sender =
  let now = Engine.now t.engine in
  if now - sender.last_upstream_remb >= upstream_remb_interval_ns then begin
    sender.last_upstream_remb <- now;
    match sender.client_send_addr with
    | None -> ()
    | Some dst ->
        (* The sender should encode at the rate of its best downstream leg;
           slower legs are served by dropping layers (paper §5.3 rationale,
           which Scallop implements in hardware and the split proxy in
           software). *)
        let best = Hashtbl.fold (fun _ o acc -> max acc o.estimate_bps) sender.outs 0 in
        if best > 0 then begin
          let remb =
            Rtcp.Remb { sender_ssrc = 0; bitrate_bps = best; ssrcs = [ sender.video_ssrc ] }
          in
          let buf = Rtcp.serialize_compound [ remb ] in
          Cpu_queue.submit t.cpu ~size:(Bytes.length buf) (fun () ->
              account t buf;
              send_from t ~port:sender.uplink_port ~dst buf)
        end
  end

let retransmit t out seqs =
  List.iter
    (fun seq ->
      match out.history.(seq mod history_size) with
      | Some pkt when pkt.Packet.sequence = seq ->
          let buf = Packet.serialize pkt in
          Cpu_queue.submit t.cpu ~size:(Bytes.length buf) (fun () ->
              account t buf;
              send_from t ~port:out.sfu_port ~dst:out.dst buf)
      | Some _ | None -> ())
    seqs

let forward_pli_upstream t sender =
  match sender.client_send_addr with
  | None -> ()
  | Some dst ->
      let buf =
        Rtcp.serialize_compound [ Rtcp.Pli { sender_ssrc = 0; media_ssrc = sender.video_ssrc } ]
      in
      Cpu_queue.submit t.cpu ~size:(Bytes.length buf) (fun () ->
          account t buf;
          send_from t ~port:sender.uplink_port ~dst buf)

let feedback_handler t sender out (dgram : Dgram.t) =
  match Rtp.Demux.classify dgram.payload with
  | Rtp.Demux.Rtcp_feedback ->
      Cpu_queue.submit t.cpu ~size:(Bytes.length dgram.payload) (fun () ->
          account t dgram.payload;
          match Rtcp.parse_compound dgram.payload with
          | exception Rtp.Wire.Parse_error _ -> ()
          | packets ->
              List.iter
                (fun p ->
                  match p with
                  | Rtcp.Remb { bitrate_bps; _ } ->
                      out.estimate_bps <- bitrate_bps;
                      out.target <-
                        Codec.Rate_policy.select_decode_target ~current:out.target
                          ~estimate_bps:bitrate_bps ~full_bitrate_bps:sender.full_bitrate;
                      maybe_send_upstream_remb t sender
                  | Rtcp.Nack { lost; _ } -> retransmit t out lost
                  | Rtcp.Pli _ -> forward_pli_upstream t sender
                  | Rtcp.Twcc _ | Rtcp.Sender_report _ | Rtcp.Receiver_report _
                  | Rtcp.Sdes _ | Rtcp.Bye _ -> ())
                packets)
  | Rtp.Demux.Stun_packet -> answer_stun t ~port:out.sfu_port ~src:dgram.src dgram.payload
  | Rtp.Demux.Rtp_media | Rtp.Demux.Unknown -> ()

(* --- signaling ------------------------------------------------------------- *)

(* Create the (sender -> receiver) leg: a fresh SFU port the receiver will
   see as its peer, and a receive connection on the receiver's client. *)
let create_leg t ~(sender : participant) ~(receiver : participant) =
  let sfu_port = fresh_port t in
  let recv_local_port = Webrtc.Client.fresh_port receiver.client in
  let conn =
    Webrtc.Client.add_recv_connection receiver.client ~local_port:recv_local_port
      ~remote:(Addr.v t.ip sfu_port) ~video_ssrc:sender.video_ssrc
      ~audio_ssrc:sender.audio_ssrc
  in
  let out =
    {
      dst = Webrtc.Client.local_addr conn;
      sfu_port;
      next_video_seq = Rng.int t.rng 0x10000;
      next_audio_seq = Rng.int t.rng 0x10000;
      target = Dd.DT_30fps;
      history = Array.make history_size None;
      estimate_bps = 0;
      packets_out = 0;
    }
  in
  Hashtbl.replace sender.outs receiver.id out;
  Network.bind t.network (Addr.v t.ip sfu_port) (feedback_handler t sender out)

let join t ~meeting ~client ~send_media =
  let members =
    match Hashtbl.find_opt t.meetings meeting with
    | Some m -> m
    | None -> invalid_arg "Sfu.Server.join: unknown meeting"
  in
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let uplink_port = fresh_port t in
  let p =
    {
      id;
      meeting;
      client;
      uplink_port;
      client_send_addr = None;
      video_ssrc = 0x10000 + (id * 2);
      audio_ssrc = 0x10001 + (id * 2);
      full_bitrate = 2_500_000;
      sends_media = send_media;
      outs = Hashtbl.create 8;
      last_upstream_remb = 0;
    }
  in
  Hashtbl.replace t.participants id p;
  Network.bind t.network (Addr.v t.ip uplink_port) (uplink_handler t p);
  if send_media then begin
    let send_port = Webrtc.Client.fresh_port client in
    let conn =
      Webrtc.Client.add_send_connection client ~local_port:send_port
        ~remote:(Addr.v t.ip uplink_port) ~video_ssrc:p.video_ssrc ~audio_ssrc:p.audio_ssrc
    in
    p.client_send_addr <- Some (Webrtc.Client.local_addr conn)
  end;
  (* wire legs with every existing member, both directions *)
  List.iter
    (fun other_id ->
      let other = Hashtbl.find t.participants other_id in
      if other.sends_media then create_leg t ~sender:other ~receiver:p;
      if send_media then create_leg t ~sender:p ~receiver:other)
    !members;
  members := id :: !members;
  id

let leave t id =
  match Hashtbl.find_opt t.participants id with
  | None -> ()
  | Some p ->
      let members = Hashtbl.find t.meetings p.meeting in
      members := List.filter (fun x -> x <> id) !members;
      Network.unbind t.network (Addr.v t.ip p.uplink_port);
      Hashtbl.iter
        (fun _ out -> Network.unbind t.network (Addr.v t.ip out.sfu_port))
        p.outs;
      Hashtbl.reset p.outs;
      (* remove legs other senders had towards this participant *)
      List.iter
        (fun other_id ->
          let other = Hashtbl.find t.participants other_id in
          match Hashtbl.find_opt other.outs id with
          | Some out ->
              Network.unbind t.network (Addr.v t.ip out.sfu_port);
              Hashtbl.remove other.outs id
          | None -> ())
        !members;
      Hashtbl.remove t.participants id

(* --- stats ------------------------------------------------------------------ *)

let packets_processed t = t.packets_processed
let bytes_processed t = t.bytes_processed
let cpu_utilization t = Cpu_queue.utilization t.cpu
let cpu_busy_ns t = Cpu_queue.busy_ns t.cpu
let cpu_dropped t = Cpu_queue.dropped t.cpu

let out_stream_count t =
  Hashtbl.fold
    (fun _ p acc ->
      acc
      + (2 * Hashtbl.length p.outs)
      + if p.sends_media then 2 else 0)
    t.participants 0
