module Stats = Scallop_util.Stats
module Timeseries = Scallop_util.Timeseries

type media = Camera | Screen
type kind = Video | Audio

type key = {
  k_meeting : int;
  k_receiver : int;
  k_sender : int;
  k_media : media;
  k_kind : kind;
}

let media_str = function Camera -> "cam" | Screen -> "screen"
let kind_str = function Video -> "video" | Audio -> "audio"

let media_of_str = function
  | "cam" -> Some Camera
  | "screen" -> Some Screen
  | _ -> None

let kind_of_str = function
  | "video" -> Some Video
  | "audio" -> Some Audio
  | _ -> None

let key_str k =
  Printf.sprintf "m%d/p%d<-p%d/%s/%s" k.k_meeting k.k_receiver k.k_sender
    (media_str k.k_media) (kind_str k.k_kind)

let layers = 3
let default_bin_ns = 1_000_000_000
let m2e_ring = 16384
let trace_ring = 8192

(* Mouth-to-ear is milliseconds: 1 ms .. 10 s at 10 buckets/decade. *)
let m2e_bounds = Stats.Histogram.log_bounds ~lo:1.0 ~hi:1e4 ~per_decade:10

type t = {
  key : key;
  mutable host : string;
      (* receiver host address ("10.0.1.3"); names the victim's access
         links ("up:<host>"/"down:<host>") for attribution *)
  mutable first_ns : int;  (* -1 until the first observation *)
  mutable packets : int;
  mutable bytes : int;
  mutable gap_packets : int;
  mutable recovered : int;
  mutable duplicates : int;
  mutable frames : int;
  layer_frames : int array;
  mutable freeze_count : int;
  mutable frozen_closed_ns : int;
  mutable freeze_since : int;  (* -1 = not frozen *)
  mutable freeze_intervals : (int * int) list;  (* closed, newest first *)
  m2e : Stats.Histogram.t;
  (* Ring of timestamped m2e samples for windowed percentiles; the
     histogram above keeps the all-time distribution for /metrics. It
     starts empty and doubles up to [m2e_ring] entries; it wraps only
     once it holds that many. *)
  mutable m2e_ts : int array;
  mutable m2e_v : float array;
  mutable m2e_next : int;
  mutable m2e_written : int;
  loss_series : Timeseries.t;
  recovered_series : Timeseries.t;
  packet_series : Timeseries.t;
  (* Ring of (trace id, arrival time) — the causal hooks attribution
     walks backwards from. Allocated at full size by the first traced
     packet, so an untraced run never holds one. *)
  mutable tr_id : int array;
  mutable tr_ts : int array;
  mutable tr_next : int;
  mutable tr_written : int;
}

let registry : (key, t) Hashtbl.t = Hashtbl.create 32

let labels_of_key k =
  [
    ("meeting", string_of_int k.k_meeting);
    ("receiver", string_of_int k.k_receiver);
    ("sender", string_of_int k.k_sender);
    ("media", media_str k.k_media);
    ("kind", kind_str k.k_kind);
  ]

(* The scallop_qoe_* series, one family per metric over the live
   collectors: a collector adds no registry entries of its own. *)
let () =
  let family name help sample =
    Metrics.register_family ~help name (fun () ->
        Hashtbl.fold (fun key t acc -> (labels_of_key key, sample t) :: acc) registry [])
  in
  let count name help field = family name help (fun t -> Metrics.Value (float_of_int (field t))) in
  count "scallop_qoe_packets_total" "Media packets received" (fun t -> t.packets);
  count "scallop_qoe_gap_packets_total" "Sequence-gap packets noticed" (fun t -> t.gap_packets);
  count "scallop_qoe_recovered_total" "Gaps later filled (retransmit/reorder)" (fun t ->
      t.recovered);
  count "scallop_qoe_frames_total" "Frames decoded" (fun t -> t.frames);
  count "scallop_qoe_freezes_total" "Playback freeze intervals begun" (fun t -> t.freeze_count);
  family "scallop_qoe_frozen_ms" "Total frozen playback time (closed intervals)" (fun t ->
      Metrics.Value (float_of_int t.frozen_closed_ns /. 1e6));
  family "scallop_qoe_mouth_to_ear_ms" "Capture-to-decode latency (virtual-time ms)" (fun t ->
      Metrics.Distribution t.m2e)

let create_collector ?(bin_ns = default_bin_ns) key =
  let t =
    {
      key;
      host = "";
      first_ns = -1;
      packets = 0;
      bytes = 0;
      gap_packets = 0;
      recovered = 0;
      duplicates = 0;
      frames = 0;
      layer_frames = Array.make layers 0;
      freeze_count = 0;
      frozen_closed_ns = 0;
      freeze_since = -1;
      freeze_intervals = [];
      m2e = Stats.Histogram.create ~bounds:m2e_bounds ();
      m2e_ts = [||];
      m2e_v = [||];
      m2e_next = 0;
      m2e_written = 0;
      loss_series = Timeseries.create ~bin_ns;
      recovered_series = Timeseries.create ~bin_ns;
      packet_series = Timeseries.create ~bin_ns;
      tr_id = [||];
      tr_ts = [||];
      tr_next = 0;
      tr_written = 0;
    }
  in
  Hashtbl.replace registry key t;
  t

let collector ?bin_ns key =
  match Hashtbl.find_opt registry key with
  | Some t -> t
  | None -> create_collector ?bin_ns key

let find key = Hashtbl.find_opt registry key
let key_of t = t.key
let set_host t host = t.host <- host
let host t = t.host

let all () =
  Hashtbl.fold (fun _ t acc -> t :: acc) registry []
  |> List.sort (fun a b -> compare a.key b.key)

let reset () = Hashtbl.reset registry

let touch t time_ns =
  if t.first_ns < 0 then t.first_ns <- time_ns

(* --- collection hooks ------------------------------------------------------ *)

let on_packet t ~time_ns ~size =
  touch t time_ns;
  t.packets <- t.packets + 1;
  t.bytes <- t.bytes + size;
  Timeseries.incr t.packet_series time_ns

let on_gap t ~time_ns ~count =
  if count > 0 then begin
    touch t time_ns;
    t.gap_packets <- t.gap_packets + count;
    Timeseries.add t.loss_series time_ns (float_of_int count)
  end

let on_gap_filled t ~time_ns =
  touch t time_ns;
  t.recovered <- t.recovered + 1;
  Timeseries.incr t.recovered_series time_ns

let on_duplicate t ~time_ns =
  touch t time_ns;
  t.duplicates <- t.duplicates + 1

let on_frame t ~time_ns ~layer =
  touch t time_ns;
  t.frames <- t.frames + 1;
  let l = if layer < 0 then 0 else if layer >= layers then layers - 1 else layer in
  t.layer_frames.(l) <- t.layer_frames.(l) + 1

let on_mouth_to_ear t ~time_ns ~ms =
  if not (Float.is_nan ms) then begin
    touch t time_ns;
    Stats.Histogram.observe t.m2e ms;
    let len = Array.length t.m2e_ts in
    if t.m2e_written = len && len < m2e_ring then begin
      (* full below the cap, so never wrapped: the samples sit in order
         at [0, len) *)
      let cap = Stdlib.min m2e_ring (Stdlib.max 16 (2 * len)) in
      let ts = Array.make cap 0 and v = Array.make cap 0.0 in
      Array.blit t.m2e_ts 0 ts 0 len;
      Array.blit t.m2e_v 0 v 0 len;
      t.m2e_ts <- ts;
      t.m2e_v <- v;
      t.m2e_next <- len
    end;
    t.m2e_ts.(t.m2e_next) <- time_ns;
    t.m2e_v.(t.m2e_next) <- ms;
    t.m2e_next <- (t.m2e_next + 1) mod Array.length t.m2e_ts;
    t.m2e_written <- t.m2e_written + 1
  end

let on_freeze_begin t ~time_ns =
  touch t time_ns;
  if t.freeze_since < 0 then begin
    t.freeze_count <- t.freeze_count + 1;
    t.freeze_since <- time_ns
  end

let on_freeze_end t ~time_ns =
  touch t time_ns;
  if t.freeze_since >= 0 then begin
    let from = t.freeze_since in
    let until = Stdlib.max from time_ns in
    t.freeze_since <- -1;
    t.frozen_closed_ns <- t.frozen_closed_ns + (until - from);
    t.freeze_intervals <- (from, until) :: t.freeze_intervals
  end

(* A decode stall detected retroactively (the receiver only learns the
   playback was starved when the next frame finally decodes): record the
   closed interval directly without touching the open-freeze state. *)
let on_stall t ~from_ns ~until_ns =
  if until_ns > from_ns then begin
    touch t until_ns;
    t.freeze_count <- t.freeze_count + 1;
    t.frozen_closed_ns <- t.frozen_closed_ns + (until_ns - from_ns);
    t.freeze_intervals <- (from_ns, until_ns) :: t.freeze_intervals
  end

let note_trace t ~time_ns ~trace =
  if trace >= 0 then begin
    if Array.length t.tr_id = 0 then begin
      t.tr_id <- Array.make trace_ring (-1);
      t.tr_ts <- Array.make trace_ring 0
    end;
    t.tr_id.(t.tr_next) <- trace;
    t.tr_ts.(t.tr_next) <- time_ns;
    t.tr_next <- (t.tr_next + 1) mod trace_ring;
    t.tr_written <- t.tr_written + 1
  end

(* --- windowed queries ------------------------------------------------------ *)

let overlap (a0, a1) (b0, b1) = Stdlib.max 0 (Stdlib.min a1 b1 - Stdlib.max a0 b0)

let frozen_ns_between t ~from_ns ~until_ns =
  let closed =
    List.fold_left
      (fun acc iv -> acc + overlap iv (from_ns, until_ns))
      0 t.freeze_intervals
  in
  if t.freeze_since >= 0 then
    closed + overlap (t.freeze_since, until_ns) (from_ns, until_ns)
  else closed

(* Fraction of the window this stream existed for and was frozen. The
   denominator clamps to the stream's lifetime so a freshly created
   stream isn't judged over history it wasn't alive for. *)
let freeze_ratio_between t ~from_ns ~until_ns =
  if t.first_ns < 0 then None
  else
    let from_ns = Stdlib.max from_ns t.first_ns in
    let span = until_ns - from_ns in
    if span <= 0 then None
    else Some (float_of_int (frozen_ns_between t ~from_ns ~until_ns) /. float_of_int span)

let ring_fold ~written ~next ~cap ~f init =
  let n = Stdlib.min written cap in
  let start = if written <= cap then 0 else next in
  let acc = ref init in
  for i = 0 to n - 1 do
    acc := f !acc ((start + i) mod cap)
  done;
  !acc

let m2e_samples_between t ~from_ns ~until_ns =
  ring_fold ~written:t.m2e_written ~next:t.m2e_next ~cap:(Array.length t.m2e_ts)
    ~f:(fun acc i ->
      let ts = t.m2e_ts.(i) in
      if ts >= from_ns && ts <= until_ns then t.m2e_v.(i) :: acc else acc)
    []

let m2e_percentile_between t ~from_ns ~until_ns ~p =
  match m2e_samples_between t ~from_ns ~until_ns with
  | [] -> None
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      Some (Stats.percentile_of_array a p)

let m2e_bad_fraction_between t ~from_ns ~until_ns ~threshold_ms =
  match m2e_samples_between t ~from_ns ~until_ns with
  | [] -> None
  | l ->
      let total = List.length l in
      let bad = List.length (List.filter (fun v -> v > threshold_ms) l) in
      Some (float_of_int bad /. float_of_int total)

let series_sum_between series ~from_ns ~until_ns =
  Timeseries.fold series ~init:0.0 ~f:(fun acc time v ->
      if time + Timeseries.bin_ns series > from_ns && time <= until_ns then acc +. v
      else acc)

let loss_ratio_between t ~from_ns ~until_ns =
  let gaps = series_sum_between t.loss_series ~from_ns ~until_ns in
  let rec_ = series_sum_between t.recovered_series ~from_ns ~until_ns in
  let pkts = series_sum_between t.packet_series ~from_ns ~until_ns in
  let unrecovered = Float.max 0.0 (gaps -. rec_) in
  if pkts +. gaps <= 0.0 then None else Some (unrecovered /. (pkts +. gaps))

let traces_between t ~from_ns ~until_ns =
  ring_fold ~written:t.tr_written ~next:t.tr_next ~cap:trace_ring
    ~f:(fun acc i ->
      let ts = t.tr_ts.(i) in
      if ts >= from_ns && ts <= until_ns && t.tr_id.(i) >= 0 then t.tr_id.(i) :: acc
      else acc)
    []
  |> List.sort_uniq compare

(* --- summaries ------------------------------------------------------------- *)

type summary = {
  s_key : key;
  s_packets : int;
  s_bytes : int;
  s_gap_packets : int;
  s_recovered : int;
  s_duplicates : int;
  s_frames : int;
  s_layer_share : float array;  (** decoded-frame share per temporal layer *)
  s_freeze_count : int;
  s_frozen_ms : float;
  s_freeze_ratio : float;
  s_m2e_p50_ms : float option;
  s_m2e_p99_ms : float option;
  s_loss_ratio : float;
}

let summary t ~now_ns =
  let from_ns = if t.first_ns < 0 then 0 else t.first_ns in
  let span = Stdlib.max 1 (now_ns - from_ns) in
  let frozen = frozen_ns_between t ~from_ns ~until_ns:now_ns in
  let layer_share =
    if t.frames = 0 then Array.make layers 0.0
    else Array.map (fun n -> float_of_int n /. float_of_int t.frames) t.layer_frames
  in
  let pct p =
    if Stats.Histogram.count t.m2e = 0 then None
    else Some (Stats.Histogram.percentile t.m2e p)
  in
  let unrecovered = Stdlib.max 0 (t.gap_packets - t.recovered) in
  let loss_ratio =
    if t.packets + t.gap_packets = 0 then 0.0
    else float_of_int unrecovered /. float_of_int (t.packets + t.gap_packets)
  in
  {
    s_key = t.key;
    s_packets = t.packets;
    s_bytes = t.bytes;
    s_gap_packets = t.gap_packets;
    s_recovered = t.recovered;
    s_duplicates = t.duplicates;
    s_frames = t.frames;
    s_layer_share = layer_share;
    s_freeze_count = t.freeze_count;
    s_frozen_ms = float_of_int frozen /. 1e6;
    s_freeze_ratio = float_of_int frozen /. float_of_int span;
    s_m2e_p50_ms = pct 50.0;
    s_m2e_p99_ms = pct 99.0;
    s_loss_ratio = loss_ratio;
  }

let first_ns t = t.first_ns
let m2e_histogram t = t.m2e
