module Dd = Av1.Dd
module Packet = Rtp.Packet
module Timeseries = Scallop_util.Timeseries
module Stats = Scallop_util.Stats
module Qoe = Scallop_obs.Qoe

(* Assembly state for one frame. *)
type frame_state = {
  template_id : int;
  mutable count : int;  (** packets received for this frame *)
  mutable first_seq : int;  (** oldest of them, in wrapping sequence order *)
  mutable last_seq : int;  (** newest of them *)
  mutable got_start : bool;
  mutable got_end : bool;
  mutable keyframe : bool;
}

type gap = {
  seq : int;
  noticed_at : int;
  mutable attempts : int;
  mutable last_nack : int;
}

type t = {
  ssrc : int;
  nack_delay_ns : int;
  pli_timeout_ns : int;
  (* sequence tracking *)
  mutable started : bool;
  mutable highest_seq : int;
  seq_to_frame : (int, int) Hashtbl.t;  (** recent seq -> frame number *)
  mutable seq_ring : int array;
      (** insertion ring, for pruning seq_to_frame; allocated by the first
          packet, so a connection no media reaches never holds it *)
  mutable seq_ring_count : int;
  mutable gaps : gap list;
  (* frame assembly *)
  frames : (int, frame_state) Hashtbl.t;
  waiting : (int, frame_state) Hashtbl.t;
      (** complete frames whose reference has not been decoded yet (e.g.
          the reference is being retransmitted) *)
  decoded : (int, unit) Hashtbl.t;
  mutable broken : bool;
  mutable broken_since : int;
  mutable last_pli : int;
  mutable decoded_any : bool;
  mutable last_decode_time : int;
  mutable first_packet_at : int;
  (* jitter *)
  mutable last_arrival_ns : int;
  mutable last_rtp_ts : int;
  mutable jitter_ticks : float;  (** RFC 3550 estimate in 90 kHz ticks *)
  (* statistics *)
  mutable frames_decoded : int;
  mutable frames_undecodable : int;
  mutable freezes : int;
  mutable nacks_sent : int;
  mutable duplicates : int;
  mutable packets_received : int;
  mutable bytes_received : int;
  fps_series : Timeseries.t;
  bitrate_series : Timeseries.t;
  jitter_bins : (int, Stats.Samples.t) Hashtbl.t;
  mouth_to_ear : Stats.Samples.t;
  capture_ts : (int, int) Hashtbl.t;  (** frame -> capture time (ns, from RTP ts) *)
  mutable qoe : Qoe.t option;  (** per-stream QoE collector, attached by the client *)
}

(* A decode gap longer than this counts as a playback stall for QoE. The
   floor must clear the legitimate T0-only cadence (one frame per 133 ms
   when rate adaptation drops both enhancement layers) plus jitter. *)
let stall_threshold_ns = 250_000_000

let seq_window_size = 2048

let create ?(nack_delay_ns = 30_000_000) ?(pli_timeout_ns = 500_000_000) ~ssrc () =
  {
    ssrc;
    nack_delay_ns;
    pli_timeout_ns;
    started = false;
    highest_seq = 0;
    seq_to_frame = Hashtbl.create 16;
    seq_ring = [||];
    seq_ring_count = 0;
    gaps = [];
    frames = Hashtbl.create 16;
    waiting = Hashtbl.create 16;
    decoded = Hashtbl.create 16;
    broken = false;
    broken_since = 0;
    last_pli = min_int / 2;
    decoded_any = false;
    last_decode_time = 0;
    first_packet_at = 0;
    last_arrival_ns = 0;
    last_rtp_ts = 0;
    jitter_ticks = 0.0;
    frames_decoded = 0;
    frames_undecodable = 0;
    freezes = 0;
    nacks_sent = 0;
    duplicates = 0;
    packets_received = 0;
    bytes_received = 0;
    fps_series = Timeseries.create ~bin_ns:1_000_000_000;
    bitrate_series = Timeseries.create ~bin_ns:1_000_000_000;
    jitter_bins = Hashtbl.create 16;
    mouth_to_ear = Stats.Samples.create ();
    capture_ts = Hashtbl.create 16;
    qoe = None;
  }

let set_qoe t q = t.qoe <- Some q
let qoe t = t.qoe

(* --- jitter (RFC 3550 §6.4.1, 90 kHz video clock) ----------------------- *)

let ticks_per_ns = 90_000.0 /. 1e9

let update_jitter t ~time_ns ~rtp_ts =
  if t.packets_received > 1 then begin
    let arrival_ticks = float_of_int (time_ns - t.last_arrival_ns) *. ticks_per_ns in
    let d = arrival_ticks -. float_of_int (rtp_ts - t.last_rtp_ts) in
    t.jitter_ticks <- t.jitter_ticks +. ((Float.abs d -. t.jitter_ticks) /. 16.0)
  end;
  t.last_arrival_ns <- time_ns;
  t.last_rtp_ts <- rtp_ts;
  let ms = t.jitter_ticks /. 90.0 in
  let bin = time_ns / 1_000_000_000 in
  let samples =
    match Hashtbl.find_opt t.jitter_bins bin with
    | Some s -> s
    | None ->
        let s = Stats.Samples.create () in
        Hashtbl.replace t.jitter_bins bin s;
        s
  in
  Stats.Samples.observe samples ms

(* --- dependency structure (paper Fig. 9) --------------------------------

   Template ids and the frame they reference, as a frame-number delta in
   the full 30 fps stream: template 0 (key) none; 1 (T0) -4; 2 (T1) -2;
   3 (T2, cycle pos 1) -1; 4 (T2, cycle pos 3) -1. *)
let reference_delta = function
  | 0 -> None
  | 1 -> Some 4
  | 2 -> Some 2
  | 3 -> Some 1
  | 4 -> Some 1
  | _ -> None

let dependencies_met t fs ~frame_number =
  if fs.keyframe then true
  else
    match reference_delta fs.template_id with
    | None -> true
    | Some delta ->
        (* The referenced frame must have been decoded. When the SFU drops
           enhancement layers the reference of a surviving frame is always
           another surviving frame (T2 frames are never references), so
           checking the direct reference is sufficient. *)
        Hashtbl.mem t.decoded ((frame_number - delta) land 0xFFFF)

(* --- frame assembly ------------------------------------------------------ *)

(* Each sequence number enters a frame once (a repeat within the
   [seq_window_size]-packet window is caught as a duplicate first), so
   the frame is gap-free exactly when its packet count spans
   first..last. Both ends are wrap-aware, so a frame straddling
   65535 -> 0 is contiguous too. *)
let contiguous fs = fs.count > 0 && fs.count = Packet.seq_sub fs.last_seq fs.first_seq + 1

let add_seq fs seq =
  if fs.count = 0 then begin
    fs.first_seq <- seq;
    fs.last_seq <- seq
  end
  else if Packet.seq_newer seq fs.last_seq then fs.last_seq <- seq
  else if Packet.seq_newer fs.first_seq seq then fs.first_seq <- seq;
  fs.count <- fs.count + 1

(* Temporal layer actually delivered by a decoded frame: templates 0
   (key) and 1 are T0, 2 is T1, 3 and 4 are T2 (paper Fig. 9). *)
let layer_of_template = function 0 | 1 -> 0 | 2 -> 1 | _ -> 2

let mark_decoded t ~time_ns ~frame_number fs =
  (match Hashtbl.find_opt t.capture_ts frame_number with
  | Some captured_ns ->
      Hashtbl.remove t.capture_ts frame_number;
      let ms = float_of_int (time_ns - captured_ns) /. 1e6 in
      Stats.Samples.observe t.mouth_to_ear ms;
      (match t.qoe with
      | Some q -> Qoe.on_mouth_to_ear q ~time_ns ~ms
      | None -> ())
  | None -> ());
  (match t.qoe with
  | Some q ->
      (* a long decode gap is a playback stall, visible only now that the
         next frame finally landed; skip while broken — the open freeze
         interval already covers that span *)
      if
        t.decoded_any && (not t.broken)
        && time_ns - t.last_decode_time > stall_threshold_ns
      then Qoe.on_stall q ~from_ns:t.last_decode_time ~until_ns:time_ns;
      Qoe.on_frame q ~time_ns ~layer:(layer_of_template fs.template_id)
  | None -> ());
  Hashtbl.replace t.decoded frame_number ();
  (* prune the decoded set to a window *)
  Hashtbl.remove t.decoded ((frame_number - 256) land 0xFFFF);
  t.frames_decoded <- t.frames_decoded + 1;
  t.decoded_any <- true;
  t.last_decode_time <- time_ns;
  Timeseries.incr t.fps_series time_ns;
  if fs.keyframe && t.broken then begin
    t.broken <- false;
    match t.qoe with
    | Some q -> Qoe.on_freeze_end q ~time_ns
    | None -> ()
  end

(* Frames whose reference decodes later (it was being retransmitted, or
   arrived out of order) park in [waiting] and are retried after every
   successful decode; hopeless ones are evicted once the stream has moved
   a window past them. *)
let waiting_window = 64

let rec drain_waiting t ~time_ns =
  let candidates =
    Hashtbl.fold (fun fn fs acc -> (fn, fs) :: acc) t.waiting []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let progressed = ref false in
  List.iter
    (fun (frame_number, fs) ->
      if (not t.broken) || fs.keyframe then
        if dependencies_met t fs ~frame_number then begin
          Hashtbl.remove t.waiting frame_number;
          mark_decoded t ~time_ns ~frame_number fs;
          progressed := true
        end)
    candidates;
  if !progressed then drain_waiting t ~time_ns

let evict_stale_waiting t ~newest_frame =
  Hashtbl.iter
    (fun fn _ ->
      let age = (newest_frame - fn) land 0xFFFF in
      if age > waiting_window && age < 0x8000 then begin
        Hashtbl.remove t.waiting fn;
        t.frames_undecodable <- t.frames_undecodable + 1
      end)
    (Hashtbl.copy t.waiting)

let try_decode t ~time_ns ~frame_number fs =
  if fs.got_start && fs.got_end && contiguous fs then begin
    Hashtbl.remove t.frames frame_number;
    if t.broken && not fs.keyframe then t.frames_undecodable <- t.frames_undecodable + 1
    else if dependencies_met t fs ~frame_number then begin
      mark_decoded t ~time_ns ~frame_number fs;
      drain_waiting t ~time_ns
    end
    else begin
      Hashtbl.replace t.waiting frame_number fs;
      evict_stale_waiting t ~newest_frame:frame_number
    end
  end

let freeze t ~time_ns =
  if not t.broken then begin
    t.broken <- true;
    t.broken_since <- time_ns;
    t.freezes <- t.freezes + 1;
    match t.qoe with
    | Some q -> Qoe.on_freeze_begin q ~time_ns
    | None -> ()
  end

(* --- gap / NACK management ----------------------------------------------- *)

let note_gaps t ~time_ns ~from_seq ~to_seq =
  (* sequence numbers strictly between the old highest and the new arrival *)
  let missing = Packet.seq_sub to_seq from_seq - 1 in
  if missing > 0 && missing < 1000 then begin
    let gaps =
      List.init missing (fun i ->
          { seq = Packet.seq_add from_seq (i + 1); noticed_at = time_ns; attempts = 0;
            last_nack = 0 })
    in
    t.gaps <- t.gaps @ gaps;
    match t.qoe with
    | Some q -> Qoe.on_gap q ~time_ns ~count:missing
    | None -> ()
  end

let clear_gap t ~time_ns seq =
  let before = List.length t.gaps in
  t.gaps <- List.filter (fun g -> g.seq <> seq) t.gaps;
  if List.length t.gaps < before then
    match t.qoe with
    | Some q -> Qoe.on_gap_filled q ~time_ns
    | None -> ()

let remember_seq t seq =
  if Array.length t.seq_ring = 0 then t.seq_ring <- Array.make seq_window_size (-1);
  let slot = t.seq_ring_count mod seq_window_size in
  let evicted = t.seq_ring.(slot) in
  if evicted >= 0 then Hashtbl.remove t.seq_to_frame evicted;
  t.seq_ring.(slot) <- seq;
  t.seq_ring_count <- t.seq_ring_count + 1

(* --- main entry ---------------------------------------------------------- *)

let receive t ~time_ns (pkt : Packet.View.t) =
  if pkt.ssrc <> t.ssrc then ()
  else begin
    t.packets_received <- t.packets_received + 1;
    let size = Bytes.length pkt.buf in
    t.bytes_received <- t.bytes_received + size;
    (match t.qoe with
    | Some q -> Qoe.on_packet q ~time_ns ~size
    | None -> ());
    Timeseries.add t.bitrate_series time_ns (float_of_int size);
    update_jitter t ~time_ns ~rtp_ts:pkt.timestamp;
    match Dd.read_fields pkt.buf ~off:pkt.ext_off ~len:pkt.ext_len with
    | None -> ()
    | Some dd -> (
        match Hashtbl.find_opt t.seq_to_frame pkt.sequence with
        | Some prev_frame when prev_frame <> dd.f_frame_number ->
            (* Same sequence number, different frame: broken rewrite. This
               is the catastrophic case of §6.2 — decoder state corrupts. *)
            t.duplicates <- t.duplicates + 1;
            (match t.qoe with
            | Some q -> Qoe.on_duplicate q ~time_ns
            | None -> ());
            freeze t ~time_ns
        | Some _ ->
            (* plain retransmission duplicate: harmless *)
            t.duplicates <- t.duplicates + 1;
            (match t.qoe with
            | Some q -> Qoe.on_duplicate q ~time_ns
            | None -> ())
        | None ->
            Hashtbl.replace t.seq_to_frame pkt.sequence dd.f_frame_number;
            remember_seq t pkt.sequence;
            if not t.started then begin
              t.started <- true;
              t.first_packet_at <- time_ns;
              t.highest_seq <- pkt.sequence
            end
            else if Packet.seq_newer pkt.sequence t.highest_seq then begin
              note_gaps t ~time_ns ~from_seq:t.highest_seq ~to_seq:pkt.sequence;
              t.highest_seq <- pkt.sequence
            end
            else clear_gap t ~time_ns pkt.sequence;
            let fs =
              match Hashtbl.find_opt t.frames dd.f_frame_number with
              | Some fs -> fs
              | None ->
                  let fs =
                    {
                      template_id = dd.f_template_id;
                      count = 0;
                      first_seq = 0;
                      last_seq = 0;
                      got_start = false;
                      got_end = false;
                      keyframe = false;
                    }
                  in
                  Hashtbl.replace t.frames dd.f_frame_number fs;
                  fs
            in
            (* 90 kHz ticks back to capture time for mouth-to-ear *)
            if not (Hashtbl.mem t.capture_ts dd.f_frame_number) then
              Hashtbl.replace t.capture_ts dd.f_frame_number (pkt.timestamp * 11111);
            add_seq fs pkt.sequence;
            if dd.f_start_of_frame then fs.got_start <- true;
            if dd.f_end_of_frame then fs.got_end <- true;
            if dd.f_has_structure then fs.keyframe <- true;
            try_decode t ~time_ns ~frame_number:dd.f_frame_number fs)
  end

(* A gap is retried up to [max_nack_attempts] times (a retransmission can
   itself be lost), with a back-off of several nack-delays between tries. *)
let max_nack_attempts = 3

let poll_nacks t ~time_ns =
  let due g =
    if g.attempts = 0 then time_ns - g.noticed_at >= t.nack_delay_ns
    else g.attempts < max_nack_attempts && time_ns - g.last_nack >= 4 * t.nack_delay_ns
  in
  let fired = List.filter due t.gaps in
  List.iter
    (fun g ->
      g.attempts <- g.attempts + 1;
      g.last_nack <- time_ns)
    fired;
  (* drop gaps that exhausted their retries a while ago *)
  t.gaps <-
    List.filter
      (fun g ->
        g.attempts < max_nack_attempts || time_ns - g.last_nack < 4 * t.nack_delay_ns)
      t.gaps;
  let seqs = List.map (fun g -> g.seq) fired in
  t.nacks_sent <- t.nacks_sent + List.length seqs;
  seqs

let poll_pli t ~time_ns =
  (* starved covers both a stalled decoder and a receiver that joined
     mid-stream and is still waiting for its first key frame *)
  let last_progress = if t.decoded_any then t.last_decode_time else t.first_packet_at in
  let starved = t.started && time_ns - last_progress > t.pli_timeout_ns in
  let broken_long = t.broken && time_ns - t.broken_since > t.pli_timeout_ns in
  if (starved || broken_long) && time_ns - t.last_pli > t.pli_timeout_ns then begin
    t.last_pli <- time_ns;
    true
  end
  else false

let frames_decoded t = t.frames_decoded
let frames_incomplete t = Hashtbl.length t.frames
let frames_undecodable t = t.frames_undecodable
let freezes t = t.freezes
let frozen t = t.broken
let nacks_sent t = t.nacks_sent
let duplicates t = t.duplicates
let packets_received t = t.packets_received
let bytes_received t = t.bytes_received
let jitter_ms t = t.jitter_ticks /. 90.0
let fps_series t = t.fps_series
let bitrate_series t = t.bitrate_series

let mouth_to_ear_ms t ~p = Stats.Samples.percentile t.mouth_to_ear p

let jitter_percentile_series t ~p =
  Hashtbl.fold (fun bin samples acc -> (bin, samples) :: acc) t.jitter_bins []
  |> List.sort compare
  |> List.map (fun (bin, samples) -> (float_of_int bin, Stats.Samples.percentile samples p))
  |> Array.of_list
