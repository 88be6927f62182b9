type detector_state = Underuse | Normal | Overuse
type rate_state = Increase | Hold | Decrease

type t = {
  min_bps : int;
  max_bps : int;
  mutable estimate_bps : int;
  (* grouping: packets sharing an RTP timestamp form a group (a frame) *)
  mutable group_ts : int;  (** RTP timestamp of the current group *)
  mutable group_first_arrival : int;
  mutable prev_group_ts : int;
  mutable prev_group_arrival : int;
  mutable have_prev_group : bool;
  mutable started : bool;
  (* trendline: the last [trend_window] inter-group samples, as a ring of
     (time since first sample, accumulated delay) pairs; allocated on the
     first sample *)
  mutable trend_at_ms : float array;
  mutable trend_delay_ms : float array;
  mutable trend_head : int;  (** slot of the oldest sample *)
  mutable trend_count : int;
  mutable accumulated_delay_ms : float;
  mutable first_arrival_ms : float;
  (* adaptive threshold detector *)
  mutable threshold_ms : float;
  mutable overuse_since : float;  (** ms timestamp when trend first exceeded *)
  mutable detector : detector_state;
  mutable last_update_ms : float;
  (* AIMD *)
  mutable rate : rate_state;
  mutable last_increase_ms : float;
  (* receive-rate window: a FIFO ring of (time_ns, size), oldest at
     [win_head], plus the running byte sum of its entries *)
  mutable win_time : int array;
  mutable win_size : int array;
  mutable win_head : int;
  mutable win_len : int;
  mutable win_bytes : int;
  (* REMB scheduling *)
  mutable last_remb_ms : float;
  mutable last_remb_value : int;
}

let trend_window = 20
let ticks_per_ms = 90.0

(* Browsers start the remote estimate near the expected media rate rather
   than probing up from zero; a low start would make the SFU drop layers
   immediately, and with layers dropped the receive-rate cap would pin the
   estimate below the full stream forever (the classic SFU/REMB spiral). *)
let create ?(initial_bps = 3_000_000) ?(min_bps = 50_000) ?(max_bps = 20_000_000) () =
  {
    min_bps;
    max_bps;
    estimate_bps = initial_bps;
    group_ts = 0;
    group_first_arrival = 0;
    prev_group_ts = 0;
    prev_group_arrival = 0;
    have_prev_group = false;
    started = false;
    trend_at_ms = [||];
    trend_delay_ms = [||];
    trend_head = 0;
    trend_count = 0;
    accumulated_delay_ms = 0.0;
    first_arrival_ms = 0.0;
    threshold_ms = 12.5;
    overuse_since = 0.0;
    detector = Normal;
    last_update_ms = 0.0;
    rate = Increase;
    last_increase_ms = 0.0;
    win_time = [||];
    win_size = [||];
    win_head = 0;
    win_len = 0;
    win_bytes = 0;
    last_remb_ms = neg_infinity;
    last_remb_value = initial_bps;
  }

(* --- receive-rate measurement ------------------------------------------- *)

let rate_window_ns = 500_000_000

(* Packets arrive in time order, so expiry only ever removes the oldest
   entries: pushing evicts them from the head, and a query subtracts any
   that have expired since without mutating. *)
let push_window t ~time_ns ~size =
  let cutoff = time_ns - rate_window_ns in
  let cap = Array.length t.win_time in
  while t.win_len > 0 && t.win_time.(t.win_head) < cutoff do
    t.win_bytes <- t.win_bytes - t.win_size.(t.win_head);
    t.win_head <- (if t.win_head + 1 = cap then 0 else t.win_head + 1);
    t.win_len <- t.win_len - 1
  done;
  if t.win_len = cap then begin
    (* full: double, unrolling the ring so the oldest entry is at 0 *)
    let cap' = max 16 (2 * cap) in
    let unroll a =
      Array.init cap' (fun i -> if i < cap then a.((t.win_head + i) mod cap) else 0)
    in
    t.win_time <- unroll t.win_time;
    t.win_size <- unroll t.win_size;
    t.win_head <- 0
  end;
  let cap = Array.length t.win_time in
  let slot = (t.win_head + t.win_len) mod cap in
  t.win_time.(slot) <- time_ns;
  t.win_size.(slot) <- size;
  t.win_len <- t.win_len + 1;
  t.win_bytes <- t.win_bytes + size

let receive_rate_bps t ~time_ns =
  let cutoff = time_ns - rate_window_ns in
  let cap = Array.length t.win_time in
  let bytes = ref t.win_bytes in
  let i = ref 0 in
  while !i < t.win_len && t.win_time.((t.win_head + !i) mod cap) < cutoff do
    bytes := !bytes - t.win_size.((t.win_head + !i) mod cap);
    incr i
  done;
  float_of_int (!bytes * 8) /. (float_of_int rate_window_ns /. 1e9)

(* --- trendline slope ------------------------------------------------------

   Least-squares slope of accumulated delay vs time over the sample window,
   matching libwebrtc's TrendlineEstimator. *)
let trend_slope t =
  let n = t.trend_count in
  if n < 7 then 0.0
  else begin
    (* every sum runs oldest to newest: float addition is
       order-sensitive, and the estimate must not depend on ring layout *)
    let xs = t.trend_at_ms and ys = t.trend_delay_ms in
    let slot i = (t.trend_head + i) mod trend_window in
    let sx = ref 0.0 and sy = ref 0.0 in
    for i = 0 to n - 1 do
      sx := !sx +. xs.(slot i);
      sy := !sy +. ys.(slot i)
    done;
    let mx = !sx /. float_of_int n and my = !sy /. float_of_int n in
    let num = ref 0.0 and den = ref 0.0 in
    for i = 0 to n - 1 do
      let dx = xs.(slot i) -. mx in
      num := !num +. (dx *. (ys.(slot i) -. my));
      den := !den +. (dx ** 2.0)
    done;
    if !den = 0.0 then 0.0 else !num /. !den
  end

(* --- adaptive threshold (libwebrtc k_up/k_down) -------------------------- *)

let k_up = 0.0087
let k_down = 0.039

let update_threshold t ~modified_trend ~now_ms =
  let abs_trend = Float.abs modified_trend in
  if abs_trend <= t.threshold_ms +. 15.0 then begin
    let k = if abs_trend < t.threshold_ms then k_down else k_up in
    let dt = Float.min (now_ms -. t.last_update_ms) 100.0 in
    t.threshold_ms <- t.threshold_ms +. (k *. (abs_trend -. t.threshold_ms) *. dt);
    t.threshold_ms <- Float.max 6.0 (Float.min 600.0 t.threshold_ms)
  end;
  t.last_update_ms <- now_ms

let overuse_time_threshold_ms = 10.0

let detect t ~trend ~now_ms ~group_delta_ms =
  (* scale trend the way libwebrtc does: by number of deltas and a gain *)
  let modified = trend *. Float.min (float_of_int t.trend_count) 60.0 *. 4.0 in
  let state =
    if modified > t.threshold_ms then begin
      if t.overuse_since = 0.0 then t.overuse_since <- now_ms -. group_delta_ms;
      if now_ms -. t.overuse_since >= overuse_time_threshold_ms then Overuse
      else t.detector
    end
    else if modified < -.t.threshold_ms then begin
      t.overuse_since <- 0.0;
      Underuse
    end
    else begin
      t.overuse_since <- 0.0;
      Normal
    end
  in
  update_threshold t ~modified_trend:modified ~now_ms;
  t.detector <- state

(* --- AIMD ----------------------------------------------------------------- *)

let aimd t ~time_ns =
  let now_ms = float_of_int time_ns /. 1e6 in
  let incoming = receive_rate_bps t ~time_ns in
  (match t.detector with
  | Overuse ->
      if t.rate <> Decrease then begin
        t.rate <- Decrease;
        let cut = int_of_float (0.85 *. incoming) in
        if cut > 0 && cut < t.estimate_bps then t.estimate_bps <- cut
      end
  | Underuse -> t.rate <- Hold
  | Normal -> (
      match t.rate with
      | Decrease | Hold ->
          t.rate <- Increase;
          t.last_increase_ms <- now_ms
      | Increase ->
          let dt_s = Float.max 0.0 ((now_ms -. t.last_increase_ms) /. 1000.0) in
          if dt_s > 0.0 then begin
            (* multiplicative increase, 8%/s; the measured-rate cap bounds
               growth but never pulls an existing estimate down (decreases
               are the overuse detector's job) *)
            let factor = 1.08 ** Float.min dt_s 1.0 in
            let grown = float_of_int t.estimate_bps *. factor in
            let cap =
              if incoming > 0.0 then (1.5 *. incoming) +. 10_000.0 else grown
            in
            let next = Float.max (float_of_int t.estimate_bps) (Float.min grown cap) in
            t.estimate_bps <- int_of_float next;
            t.last_increase_ms <- now_ms
          end));
  t.estimate_bps <- max t.min_bps (min t.max_bps t.estimate_bps)

(* --- group accounting ------------------------------------------------------ *)

(* Inter-group deltas use the *first* arrival of each group: frames are
   paced onto the wire, so last-packet times vary with frame size even on
   an idle path, while first-packet times track queueing delay only. *)
let complete_group t ~time_ns =
  if t.have_prev_group then begin
    let arrival_delta_ms =
      float_of_int (t.group_first_arrival - t.prev_group_arrival) /. 1e6
    in
    let departure_delta_ms =
      float_of_int (t.group_ts - t.prev_group_ts) /. ticks_per_ms
    in
    let gradient = arrival_delta_ms -. departure_delta_ms in
    let now_ms = float_of_int time_ns /. 1e6 in
    if t.trend_count = 0 then begin
      t.first_arrival_ms <- now_ms;
      t.trend_at_ms <- Array.make trend_window 0.0;
      t.trend_delay_ms <- Array.make trend_window 0.0
    end;
    t.accumulated_delay_ms <- t.accumulated_delay_ms +. gradient;
    (* append, overwriting the oldest sample once the ring is full *)
    let slot = (t.trend_head + t.trend_count) mod trend_window in
    t.trend_at_ms.(slot) <- now_ms -. t.first_arrival_ms;
    t.trend_delay_ms.(slot) <- t.accumulated_delay_ms;
    if t.trend_count = trend_window then t.trend_head <- (t.trend_head + 1) mod trend_window
    else t.trend_count <- t.trend_count + 1;
    let trend = trend_slope t in
    detect t ~trend ~now_ms ~group_delta_ms:arrival_delta_ms;
    aimd t ~time_ns
  end;
  t.prev_group_ts <- t.group_ts;
  t.prev_group_arrival <- t.group_first_arrival;
  t.have_prev_group <- true

let on_packet t ~time_ns ~rtp_ts ~size =
  push_window t ~time_ns ~size;
  if not t.started then begin
    t.started <- true;
    t.group_ts <- rtp_ts;
    t.group_first_arrival <- time_ns
  end
  else if rtp_ts <= t.group_ts then
    (* another packet of the current group, or a retransmission or
       reordered packet of an older frame: it counts toward the receive
       rate only; an older frame would corrupt the inter-group delay
       filter (libwebrtc likewise discards old groups) *)
    ()
  else begin
    complete_group t ~time_ns;
    t.group_ts <- rtp_ts;
    t.group_first_arrival <- time_ns
  end

let estimate_bps t = t.estimate_bps
let detector_state t = t.detector
let rate_state t = t.rate

let remb_interval_ms = 440.0

let poll_remb t ~time_ns =
  let now_ms = float_of_int time_ns /. 1e6 in
  let dropped_sharply =
    float_of_int t.estimate_bps < 0.97 *. float_of_int t.last_remb_value
  in
  if now_ms -. t.last_remb_ms >= remb_interval_ms || dropped_sharply then begin
    t.last_remb_ms <- now_ms;
    t.last_remb_value <- t.estimate_bps;
    Some t.estimate_bps
  end
  else None
