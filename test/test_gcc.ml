(* Receiver-side Google Congestion Control tests. *)

module G = Gcc.Estimator

(* Feed [seconds] of a 30 fps stream; [delay_of i] maps frame index to a
   one-way delay in ns (growing delay = queue building = overuse). *)
let drive ?(gcc = G.create ()) ~seconds ~delay_of () =
  let frames = int_of_float (seconds *. 30.0) in
  for i = 0 to frames - 1 do
    let departure = i * 33_333_333 in
    let arrival = departure + delay_of i in
    let rtp_ts = departure / 11111 in
    for p = 0 to 8 do
      G.on_packet gcc ~time_ns:(arrival + (p * 500_000)) ~rtp_ts ~size:1160
    done
  done;
  gcc

let stable_no_congestion () =
  let gcc = drive ~seconds:20.0 ~delay_of:(fun _ -> 5_000_000) () in
  Alcotest.(check bool) "no overuse" true (G.detector_state gcc <> G.Overuse);
  (* capped at 1.5x the ~2.5 Mb/s incoming rate, never collapses *)
  Alcotest.(check bool) "estimate healthy" true (G.estimate_bps gcc > 2_000_000)

let estimate_never_below_floor () =
  let gcc = drive ~seconds:10.0 ~delay_of:(fun i -> i * 1_000_000) () in
  Alcotest.(check bool) "floor" true (G.estimate_bps gcc >= 50_000)

let overuse_on_growing_delay () =
  let gcc = G.create () in
  (* steady for 5s, then delay grows 6 ms per frame (heavy queue build-up) *)
  let _ = drive ~gcc ~seconds:5.0 ~delay_of:(fun _ -> 5_000_000) () in
  let before = G.estimate_bps gcc in
  let frames0 = 150 in
  for i = 0 to 149 do
    let departure = (frames0 + i) * 33_333_333 in
    let arrival = departure + 5_000_000 + (i * 6_000_000) in
    let rtp_ts = departure / 11111 in
    for p = 0 to 8 do
      G.on_packet gcc ~time_ns:(arrival + (p * 500_000)) ~rtp_ts ~size:1160
    done
  done;
  Alcotest.(check bool) "estimate cut" true (G.estimate_bps gcc < before)

let remb_cadence () =
  let gcc = drive ~seconds:5.0 ~delay_of:(fun _ -> 1_000_000) () in
  let count = ref 0 in
  for ms = 0 to 4_999 do
    match G.poll_remb gcc ~time_ns:(ms * 1_000_000) with
    | Some _ -> incr count
    | None -> ()
  done;
  (* one REMB per 440 ms window *)
  Alcotest.(check bool) "cadence" true (!count >= 10 && !count <= 13)

let remb_immediate_on_drop () =
  let gcc = G.create () in
  ignore (G.poll_remb gcc ~time_ns:0);
  (* nothing new shortly after... *)
  Alcotest.(check bool) "throttled" true (G.poll_remb gcc ~time_ns:50_000_000 = None);
  (* ...unless the estimate collapses, then a REMB goes out immediately *)
  let _ = drive ~gcc ~seconds:5.0 ~delay_of:(fun i -> i * 3_000_000) () in
  Alcotest.(check bool) "estimate dropped" true (G.estimate_bps gcc < 3_000_000)

let receive_rate_measured () =
  let gcc = drive ~seconds:3.0 ~delay_of:(fun _ -> 0) () in
  let rate = G.receive_rate_bps gcc ~time_ns:(3 * 1_000_000_000) in
  (* 30 fps x 9 packets x 1160 B = 2.5 Mb/s *)
  Alcotest.(check bool) "about 2.5 Mb/s" true (rate > 2.0e6 && rate < 3.1e6)

let bounds_respected () =
  let gcc = G.create ~initial_bps:100_000 ~min_bps:80_000 ~max_bps:150_000 () in
  let _ = drive ~gcc ~seconds:10.0 ~delay_of:(fun _ -> 0) () in
  Alcotest.(check bool) "max clamp" true (G.estimate_bps gcc <= 150_000)

(* --- equivalence with the list-based estimator ------------------------------

   The estimator as it was before its receive-rate window and trendline
   became rings, kept as a reference model: the window is a list rebuilt
   with [List.filter] on every packet, and the trendline a newest-first
   list of at most [trend_window] samples, reversed for the regression.
   The ring version must agree with it bit for bit after every packet. *)
module Ref = struct
  type t = {
    min_bps : int;
    max_bps : int;
    mutable estimate_bps : int;
    mutable group_ts : int;
    mutable group_first_arrival : int;
    mutable prev_group_ts : int;
    mutable prev_group_arrival : int;
    mutable have_prev_group : bool;
    mutable started : bool;
    mutable samples : (float * float) list;  (** (at_ms, accumulated), newest first *)
    mutable accumulated_delay_ms : float;
    mutable first_arrival_ms : float;
    mutable threshold_ms : float;
    mutable overuse_since : float;
    mutable detector : G.detector_state;
    mutable last_update_ms : float;
    mutable rate : G.rate_state;
    mutable last_increase_ms : float;
    mutable window : (int * int) list;  (** (time_ns, size), newest first *)
  }

  let create () =
    {
      min_bps = 50_000;
      max_bps = 20_000_000;
      estimate_bps = 3_000_000;
      group_ts = 0;
      group_first_arrival = 0;
      prev_group_ts = 0;
      prev_group_arrival = 0;
      have_prev_group = false;
      started = false;
      samples = [];
      accumulated_delay_ms = 0.0;
      first_arrival_ms = 0.0;
      threshold_ms = 12.5;
      overuse_since = 0.0;
      detector = G.Normal;
      last_update_ms = 0.0;
      rate = G.Increase;
      last_increase_ms = 0.0;
      window = [];
    }

  let rate_window_ns = 500_000_000

  let push_window t ~time_ns ~size =
    t.window <- (time_ns, size) :: t.window;
    let cutoff = time_ns - rate_window_ns in
    t.window <- List.filter (fun (ts, _) -> ts >= cutoff) t.window

  let receive_rate_bps t ~time_ns =
    let cutoff = time_ns - rate_window_ns in
    let bytes =
      List.fold_left (fun acc (ts, size) -> if ts >= cutoff then acc + size else acc) 0 t.window
    in
    float_of_int (bytes * 8) /. (float_of_int rate_window_ns /. 1e9)

  let trend_slope samples =
    let n = List.length samples in
    if n < 7 then 0.0
    else begin
      let xs = List.map fst samples and ys = List.map snd samples in
      let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int n in
      let mx = mean xs and my = mean ys in
      let num = List.fold_left2 (fun acc x y -> acc +. ((x -. mx) *. (y -. my))) 0.0 xs ys in
      let den = List.fold_left (fun acc x -> acc +. ((x -. mx) ** 2.0)) 0.0 xs in
      if den = 0.0 then 0.0 else num /. den
    end

  let detect t ~trend ~now_ms ~group_delta_ms =
    let modified = trend *. Float.min (float_of_int (List.length t.samples)) 60.0 *. 4.0 in
    let state =
      if modified > t.threshold_ms then begin
        if t.overuse_since = 0.0 then t.overuse_since <- now_ms -. group_delta_ms;
        if now_ms -. t.overuse_since >= 10.0 then G.Overuse else t.detector
      end
      else if modified < -.t.threshold_ms then begin
        t.overuse_since <- 0.0;
        G.Underuse
      end
      else begin
        t.overuse_since <- 0.0;
        G.Normal
      end
    in
    let abs_trend = Float.abs modified in
    if abs_trend <= t.threshold_ms +. 15.0 then begin
      let k = if abs_trend < t.threshold_ms then 0.039 else 0.0087 in
      let dt = Float.min (now_ms -. t.last_update_ms) 100.0 in
      t.threshold_ms <- t.threshold_ms +. (k *. (abs_trend -. t.threshold_ms) *. dt);
      t.threshold_ms <- Float.max 6.0 (Float.min 600.0 t.threshold_ms)
    end;
    t.last_update_ms <- now_ms;
    t.detector <- state

  let aimd t ~time_ns =
    let now_ms = float_of_int time_ns /. 1e6 in
    let incoming = receive_rate_bps t ~time_ns in
    (match t.detector with
    | G.Overuse ->
        if t.rate <> G.Decrease then begin
          t.rate <- G.Decrease;
          let cut = int_of_float (0.85 *. incoming) in
          if cut > 0 && cut < t.estimate_bps then t.estimate_bps <- cut
        end
    | G.Underuse -> t.rate <- G.Hold
    | G.Normal -> (
        match t.rate with
        | G.Decrease | G.Hold ->
            t.rate <- G.Increase;
            t.last_increase_ms <- now_ms
        | G.Increase ->
            let dt_s = Float.max 0.0 ((now_ms -. t.last_increase_ms) /. 1000.0) in
            if dt_s > 0.0 then begin
              let factor = 1.08 ** Float.min dt_s 1.0 in
              let grown = float_of_int t.estimate_bps *. factor in
              let cap = if incoming > 0.0 then (1.5 *. incoming) +. 10_000.0 else grown in
              let next = Float.max (float_of_int t.estimate_bps) (Float.min grown cap) in
              t.estimate_bps <- int_of_float next;
              t.last_increase_ms <- now_ms
            end));
    t.estimate_bps <- max t.min_bps (min t.max_bps t.estimate_bps)

  let complete_group t ~time_ns =
    if t.have_prev_group then begin
      let arrival_delta_ms =
        float_of_int (t.group_first_arrival - t.prev_group_arrival) /. 1e6
      in
      let departure_delta_ms = float_of_int (t.group_ts - t.prev_group_ts) /. 90.0 in
      let gradient = arrival_delta_ms -. departure_delta_ms in
      let now_ms = float_of_int time_ns /. 1e6 in
      if t.samples = [] then t.first_arrival_ms <- now_ms;
      t.accumulated_delay_ms <- t.accumulated_delay_ms +. gradient;
      t.samples <- (now_ms -. t.first_arrival_ms, t.accumulated_delay_ms) :: t.samples;
      if List.length t.samples > 20 then t.samples <- List.filteri (fun i _ -> i < 20) t.samples;
      let trend = trend_slope (List.rev t.samples) in
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
    else if rtp_ts <= t.group_ts then ()
    else begin
      complete_group t ~time_ns;
      t.group_ts <- rtp_ts;
      t.group_first_arrival <- time_ns
    end
end

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* One frame of the generated arrival pattern: idle time before it (now
   and then over the 500 ms window, emptying it, or exactly on its
   expiry boundary), the RTP timestamp step
   from the previous frame (0 = same group, negative = a stale group),
   and its packets (sometimes bursts longer than the window ring's
   initial capacity), their spacing and size. *)
let frame_gen =
  QCheck.Gen.(
    let gap =
      frequency
        [
          (8, int_range 0 45_000_000);
          (1, int_range 500_000_001 2_000_000_000);
          (* packets exactly one window apart sit on the expiry boundary *)
          (1, oneofl [ 250_000_000; 500_000_000 ]);
        ]
    in
    let ts_step = frequency [ (1, return 0); (8, int_range 1 6_000); (1, int_range (-6_000) (-1)) ] in
    let burst = frequency [ (6, int_range 1 10); (1, int_range 17 90) ] in
    let spacing = oneofl [ 0; 100_000; 500_000 ] in
    tup5 gap ts_step burst spacing (int_range 40 1_300))

let prop_ring_matches_list =
  QCheck.Test.make ~count:300 ~name:"ring estimator = list estimator, bit for bit"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 150) frame_gen))
    (fun frames ->
      let g = G.create () and r = Ref.create () in
      let time = ref 0 and ts = ref 100_000 in
      let agree () =
        (* queries ahead of the last packet expire entries without mutating *)
        List.for_all
          (fun ahead ->
            same_float
              (G.receive_rate_bps g ~time_ns:(!time + ahead))
              (Ref.receive_rate_bps r ~time_ns:(!time + ahead)))
          [ 0; 250_000_000; 600_000_000 ]
        && G.estimate_bps g = r.Ref.estimate_bps
        && G.detector_state g = r.Ref.detector
        && G.rate_state g = r.Ref.rate
      in
      List.for_all
        (fun (gap, ts_step, burst, spacing, size) ->
          time := !time + gap;
          ts := !ts + ts_step;
          List.for_all
            (fun i ->
              if i > 0 then time := !time + spacing;
              G.on_packet g ~time_ns:!time ~rtp_ts:!ts ~size;
              Ref.on_packet r ~time_ns:!time ~rtp_ts:!ts ~size;
              agree ())
            (List.init burst Fun.id))
        frames)

(* the same lockstep over the deterministic congestion scenario above,
   which does drive the detector into overuse *)
let ring_matches_list_under_overuse () =
  let g = G.create () and r = Ref.create () in
  let overused = ref false in
  for i = 0 to 449 do
    let departure = i * 33_333_333 in
    let delay = if i < 150 then 5_000_000 else 5_000_000 + ((i - 150) * 6_000_000) in
    let rtp_ts = departure / 11111 in
    for p = 0 to 8 do
      let time_ns = departure + delay + (p * 500_000) in
      G.on_packet g ~time_ns ~rtp_ts ~size:1160;
      Ref.on_packet r ~time_ns ~rtp_ts ~size:1160;
      if G.detector_state g = G.Overuse then overused := true;
      if
        not
          (same_float (G.receive_rate_bps g ~time_ns) (Ref.receive_rate_bps r ~time_ns)
          && G.estimate_bps g = r.Ref.estimate_bps
          && G.detector_state g = r.Ref.detector)
      then Alcotest.failf "diverged at frame %d packet %d" i p
    done
  done;
  Alcotest.(check bool) "overuse reached" true !overused

let () =
  Alcotest.run "gcc"
    [
      ( "estimator",
        [
          Alcotest.test_case "stable without congestion" `Quick stable_no_congestion;
          Alcotest.test_case "floor respected" `Quick estimate_never_below_floor;
          Alcotest.test_case "overuse on growing delay" `Quick overuse_on_growing_delay;
          Alcotest.test_case "remb cadence" `Quick remb_cadence;
          Alcotest.test_case "remb immediate on drop" `Quick remb_immediate_on_drop;
          Alcotest.test_case "receive rate" `Quick receive_rate_measured;
          Alcotest.test_case "bounds" `Quick bounds_respected;
          Alcotest.test_case "ring = list under overuse" `Quick
            ring_matches_list_under_overuse;
        ] );
      ("properties", [ Fixed_seed.to_alcotest prop_ring_matches_list ]);
    ]
