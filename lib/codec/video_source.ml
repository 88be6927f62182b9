module Rng = Scallop_util.Rng
module Dd = Av1.Dd

type config = {
  ssrc : int;
  payload_type : int;
  target_bitrate_bps : int;
  mtu : int;
  keyframe_interval : int;
}

let default_config ~ssrc =
  { ssrc; payload_type = 96; target_bitrate_bps = 2_500_000; mtu = 1160; keyframe_interval = 300 }

type frame = {
  number : int;
  template_id : int;
  layer : Dd.temporal_layer;
  keyframe : bool;
  size_bytes : int;
  packets : Rtp.Packet.t list;
}

type t = {
  rng : Rng.t;
  cfg : config;
  mutable bitrate : int;
  mutable frame_number : int;
  mutable cycle_pos : int;
  mutable sequence : int;
  mutable keyframe_pending : bool;
  mutable frames_emitted : int;
}

let fps = 30.0

let create rng cfg =
  {
    rng;
    cfg;
    bitrate = cfg.target_bitrate_bps;
    frame_number = 0;
    cycle_pos = 0;
    sequence = Rng.int rng 0x10000;
    keyframe_pending = true;
    frames_emitted = 0;
  }

(* Per-layer size weights, normalized so a full L1T3 cycle (T0 T2 T1 T2)
   averages to bitrate/fps per frame. Key frames are ~8x an average frame. *)
let layer_weight = function Dd.T0 -> 1.5 | Dd.T1 -> 1.0 | Dd.T2 -> 0.75
let keyframe_weight = 6.0

let frame_size t ~layer ~keyframe =
  let mean_frame = float_of_int t.bitrate /. 8.0 /. fps in
  let weight = if keyframe then keyframe_weight else layer_weight layer in
  let noisy = Rng.lognormal t.rng ~mu:(log (mean_frame *. weight)) ~sigma:0.15 in
  max 64 (int_of_float noisy)

let packetize t ~time_ns ~frame_number ~template_id ~keyframe ~size =
  let structure = if keyframe then Some Dd.l1t3_structure else None in
  let ts = time_ns / 11111 land 0xFFFFFFFF in
  (* 90 kHz clock: 1e9 / 90e3 ≈ 11111 ns per tick *)
  let n_packets = max 1 ((size + t.cfg.mtu - 1) / t.cfg.mtu) in
  List.init n_packets (fun i ->
      let first = i = 0 and last = i = n_packets - 1 in
      let chunk =
        if last then size - (t.cfg.mtu * (n_packets - 1)) else t.cfg.mtu
      in
      let dd : Dd.t =
        {
          start_of_frame = first;
          end_of_frame = last;
          template_id;
          frame_number;
          structure = (if first then structure else None);
        }
      in
      let seq = t.sequence in
      t.sequence <- Rtp.Packet.seq_succ t.sequence;
      Rtp.Packet.make ~marker:last
        ~extensions:[ { Rtp.Packet.id = Dd.extension_id; data = Dd.serialize dd } ]
        ~payload_type:t.cfg.payload_type ~sequence:seq ~timestamp:ts ~ssrc:t.cfg.ssrc
        (Bytes.create chunk))

let next_frame t ~time_ns =
  let periodic_key =
    t.cfg.keyframe_interval > 0
    && t.frames_emitted mod t.cfg.keyframe_interval = 0
    && t.cycle_pos = 0
  in
  let keyframe = (t.keyframe_pending || periodic_key) && t.cycle_pos = 0 in
  (* A demanded key frame waits for the next cycle start so the layer
     structure stays aligned. *)
  let template_id = Dd.l1t3_template ~keyframe ~frame_in_cycle:t.cycle_pos in
  let layer = Dd.layer_of_template_l1t3 template_id in
  let size = frame_size t ~layer ~keyframe in
  let frame_number = t.frame_number in
  let packets = packetize t ~time_ns ~frame_number ~template_id ~keyframe ~size in
  if keyframe then t.keyframe_pending <- false;
  t.frame_number <- Dd.frame_number_succ t.frame_number;
  t.cycle_pos <- (t.cycle_pos + 1) land 3;
  t.frames_emitted <- t.frames_emitted + 1;
  { number = frame_number; template_id; layer; keyframe; size_bytes = size; packets }

let set_bitrate t b = t.bitrate <- max 50_000 b
let bitrate t = t.bitrate
let request_keyframe t = t.keyframe_pending <- true
