module Packet = Rtp.Packet
module Qoe = Scallop_obs.Qoe

type t = {
  ssrc : int;
  mutable qoe : Qoe.t option;
  mutable started : bool;
  mutable highest_seq : int;
  mutable packets_received : int;
  mutable packets_lost : int;
  mutable duplicates : int;
  mutable last_arrival_ns : int;
  mutable last_rtp_ts : int;
  mutable jitter_ticks : float;
  seen : (int, unit) Hashtbl.t;  (** recent seqs, pruned by ring *)
  mutable ring : int array;  (** allocated by the first packet *)
  mutable ring_count : int;
}

let window = 512

let create ~ssrc =
  {
    ssrc;
    qoe = None;
    started = false;
    highest_seq = 0;
    packets_received = 0;
    packets_lost = 0;
    duplicates = 0;
    last_arrival_ns = 0;
    last_rtp_ts = 0;
    jitter_ticks = 0.0;
    seen = Hashtbl.create 16;
    ring = [||];
    ring_count = 0;
  }

let ticks_per_ns = 48_000.0 /. 1e9

let remember t seq =
  if Array.length t.ring = 0 then t.ring <- Array.make window (-1);
  let slot = t.ring_count mod window in
  if t.ring.(slot) >= 0 then Hashtbl.remove t.seen t.ring.(slot);
  t.ring.(slot) <- seq;
  t.ring_count <- t.ring_count + 1;
  Hashtbl.replace t.seen seq ()

let set_qoe t q = t.qoe <- Some q
let qoe t = t.qoe

let receive t ~time_ns (pkt : Packet.View.t) =
  if pkt.ssrc = t.ssrc then begin
    if Hashtbl.mem t.seen pkt.sequence then begin
      t.duplicates <- t.duplicates + 1;
      match t.qoe with
      | Some q -> Qoe.on_duplicate q ~time_ns
      | None -> ()
    end
    else begin
      (* jitter over fresh packets only *)
      if t.packets_received > 0 then begin
        let arrival_ticks = float_of_int (time_ns - t.last_arrival_ns) *. ticks_per_ns in
        let d = arrival_ticks -. float_of_int (pkt.timestamp - t.last_rtp_ts) in
        t.jitter_ticks <- t.jitter_ticks +. ((Float.abs d -. t.jitter_ticks) /. 16.0)
      end;
      t.last_arrival_ns <- time_ns;
      t.last_rtp_ts <- pkt.timestamp;
      t.packets_received <- t.packets_received + 1;
      (match t.qoe with
      | Some q -> Qoe.on_packet q ~time_ns ~size:(Bytes.length pkt.buf)
      | None -> ());
      remember t pkt.sequence;
      if not t.started then begin
        t.started <- true;
        t.highest_seq <- pkt.sequence
      end
      else begin
        let delta = Packet.seq_sub pkt.sequence t.highest_seq in
        if delta > 0 then begin
          if delta > 1 && delta < 1000 then begin
            t.packets_lost <- t.packets_lost + delta - 1;
            match t.qoe with
            | Some q -> Qoe.on_gap q ~time_ns ~count:(delta - 1)
            | None -> ()
          end;
          t.highest_seq <- pkt.sequence
        end
        else if t.packets_lost > 0 then begin
          (* a late (reordered) packet fills a gap we already counted *)
          t.packets_lost <- t.packets_lost - 1;
          match t.qoe with
          | Some q -> Qoe.on_gap_filled q ~time_ns
          | None -> ()
        end
      end
    end
  end

let packets_received t = t.packets_received
let packets_lost t = t.packets_lost

let loss_rate t =
  let total = t.packets_received + t.packets_lost in
  if total = 0 then 0.0 else float_of_int t.packets_lost /. float_of_int total

let jitter_ms t = t.jitter_ticks /. 48.0
let duplicates t = t.duplicates
