module Table = Scallop_util.Table
module Timeseries = Scallop_util.Timeseries
module Engine = Netsim.Engine

type sample = {
  participants : int;
  jitter_p95_ms : float;
  mean_fps : float;
  cpu_utilization : float;
}

type result = {
  series : sample list;
  saturation_participants : int option;
  fps_half_participants : int option;
  mouth_to_ear_p95_ms : float;  (** across meeting-1 receivers, whole run *)
}

let meeting_size = 10

(* One pinned core; the per-packet cost is scaled to the reduced media
   rate so saturation lands near ~80 participants, as on the testbed (the
   protocol overhead that grows under stress — NACKs, PLIs, keyframes —
   adds to the nominal media load). *)
let pinned_core =
  {
    Netsim.Cpu_queue.cores = 1;
    service_ns_per_packet = 32_000;
    service_ns_per_byte = 0;
    spike_probability = 0.01;
    spike_mu = log 200_000.0;
    spike_sigma = 0.8;
    max_queue_delay_ns = 400_000_000;
    wakeup_latency_ns = 20_000;
  }

let light_client ~ip =
  {
    (Webrtc.Client.default_config ~ip) with
    video_bitrate_bps = 250_000;
    send_audio = false;
  }

let compute ?(quick = false) () =
  let total = if quick then 100 else 150 in
  let join_interval_s = if quick then 0.5 else 1.5 in
  let settle_s = if quick then 8.0 else 30.0 in
  let stack = Common.make_software ~seed:5 ~cpu:pinned_core () in
  let meetings =
    Array.init
      ((total + meeting_size - 1) / meeting_size)
      (fun _ -> Sfu.Server.create_meeting stack.server)
  in
  let first_meeting_clients = ref [] in
  let cpu_by_second = Hashtbl.create 256 in
  let joined = ref 0 in
  Engine.every stack.s_engine ~interval:(Engine.sec join_interval_s) (fun () ->
      if !joined < total then begin
        let client =
          Common.add_client stack.s_engine stack.s_network stack.s_rng ~index:!joined
            ~config:light_client ()
        in
        let meeting = meetings.(!joined / meeting_size) in
        ignore (Sfu.Server.join stack.server ~meeting ~client ~send_media:true);
        if !joined < meeting_size then
          first_meeting_clients := client :: !first_meeting_clients;
        incr joined;
        true
      end
      else false);
  let last_busy = ref 0 in
  Engine.every stack.s_engine ~interval:(Engine.sec 1.0) (fun () ->
      let sec = Engine.now stack.s_engine / 1_000_000_000 in
      let busy = Sfu.Server.cpu_busy_ns stack.server in
      (* windowed (per-second) utilization of the pinned core *)
      Hashtbl.replace cpu_by_second sec
        (Float.min 1.0 (float_of_int (busy - !last_busy) /. 1e9));
      last_busy := busy;
      true);
  let duration = (float_of_int total *. join_interval_s) +. settle_s in
  Common.run_for stack.s_engine ~seconds:duration;
  (* meeting 1's receive quality, second by second *)
  let receivers =
    List.concat_map
      (fun client ->
        Webrtc.Client.connections client |> List.filter_map Webrtc.Client.receiver)
      !first_meeting_clients
  in
  let fps_at sec =
    let per_rx rx =
      Array.fold_left
        (fun acc (time, v) -> if time / 1_000_000_000 = sec then acc +. v else acc)
        0.0
        (Timeseries.bins (Codec.Video_receiver.fps_series rx))
    in
    match receivers with
    | [] -> 0.0
    | _ ->
        List.fold_left (fun acc rx -> acc +. per_rx rx) 0.0 receivers
        /. float_of_int (List.length receivers)
  in
  let jitter_at sec =
    List.fold_left
      (fun acc rx ->
        Array.fold_left
          (fun acc (t, v) -> if int_of_float t = sec then Float.max acc v else acc)
          acc
          (Codec.Video_receiver.jitter_percentile_series rx ~p:95.0))
      0.0 receivers
  in
  let participants_at sec =
    min total (int_of_float (float_of_int sec /. join_interval_s))
  in
  let milestones =
    List.init (total / meeting_size) (fun i -> (i + 1) * meeting_size)
  in
  let series =
    List.map
      (fun p ->
        (* sample shortly after the milestone's joins complete *)
        let sec = int_of_float (float_of_int p *. join_interval_s) + 2 in
        let sec = if p = total then sec + int_of_float settle_s - 4 else sec in
        ignore (participants_at sec);
        {
          participants = p;
          jitter_p95_ms = jitter_at sec;
          mean_fps = fps_at sec;
          cpu_utilization =
            Option.value (Hashtbl.find_opt cpu_by_second sec) ~default:0.0;
        })
      milestones
  in
  let first_where pred =
    List.find_opt pred series |> Option.map (fun s -> s.participants)
  in
  let mouth_to_ear_p95_ms =
    List.fold_left
      (fun acc rx ->
        try Float.max acc (Codec.Video_receiver.mouth_to_ear_ms rx ~p:95.0)
        with Invalid_argument _ -> acc)
      0.0 receivers
  in
  {
    series;
    saturation_participants = first_where (fun s -> s.cpu_utilization >= 0.95);
    fps_half_participants = first_where (fun s -> s.mean_fps < 15.0);
    mouth_to_ear_p95_ms;
  }

let at n r = List.find (fun s -> s.participants = n) r.series

let claims =
  [
    Claim.float "Fig 4" "mean fps at 30 participants" ~paper:"healthy below ~60" ~decimals:1
      ~gt:25.0 (fun r -> (at 30 r).mean_fps);
    Claim.float "Fig 4" "mean fps at 100 participants" ~paper:"unusable at 100-120"
      ~decimals:1 ~lt:15.0 (fun r -> (at 100 r).mean_fps);
    Claim.float "Fig 3" "p95 jitter ms, 100 minus 30 participants" ~paper:"jitter grows with load"
      ~gt:0.0 (fun r -> (at 100 r).jitter_p95_ms -. (at 30 r).jitter_p95_ms);
  ]

let print r =
  let table =
    Table.create ~title:"Figs 3-4: software SFU under load (single pinned core)"
      ~columns:[ "participants"; "p95 jitter (ms)"; "mean fps"; "CPU util." ]
  in
  List.iter
    (fun s ->
      Table.add_row table
        [
          Table.cell_i s.participants;
          Table.cell_f s.jitter_p95_ms;
          Table.cell_f ~decimals:1 s.mean_fps;
          Table.cell_pct s.cpu_utilization;
        ])
    r.series;
  Table.print table;
  Printf.printf
    "CPU >=95%% first at %s participants; fps below 15 at %s; worst p95 mouth-to-ear \
     across meeting-1 receivers: %.0f ms\n"
    (match r.saturation_participants with Some p -> string_of_int p | None -> "-")
    (match r.fps_half_participants with Some p -> string_of_int p | None -> "-")
    r.mouth_to_ear_p95_ms
