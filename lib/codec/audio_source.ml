module Rng = Scallop_util.Rng

type config = { ssrc : int; payload_type : int; frame_bytes : int }

let default_config ~ssrc = { ssrc; payload_type = 111; frame_bytes = 128 }

type t = {
  rng : Rng.t;
  cfg : config;
  mutable sequence : int;
}

let interval_ns = 20_000_000

let create rng cfg =
  { rng; cfg; sequence = Rng.int rng 0x10000 }

let next_packet t ~time_ns =
  (* 48 kHz clock: 20833 ns per tick. Size varies a little with VBR. *)
  let ts = time_ns / 20833 land 0xFFFFFFFF in
  let size = max 32 (t.cfg.frame_bytes + Rng.int t.rng 33 - 16) in
  let seq = t.sequence in
  t.sequence <- Rtp.Packet.seq_succ t.sequence;
  Rtp.Packet.make ~payload_type:t.cfg.payload_type ~sequence:seq ~timestamp:ts
    ~ssrc:t.cfg.ssrc (Bytes.create size)
