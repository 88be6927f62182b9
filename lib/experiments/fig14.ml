module Table = Scallop_util.Table
module Timeseries = Scallop_util.Timeseries
module Link = Netsim.Link

type sample = { t_s : float; send_fps : float; p3_recv_fps : float; p3_recv_kbps : float }

type result = {
  series : sample list;
  final_target : Av1.Dd.decode_target;
  freezes : int;
  initial_fps : float;
  mid_fps : float;
  late_fps : float;
  p3_qoe : Scallop_obs.Qoe.summary list;
}

(* Downlink caps chosen so GCC's post-overuse estimate (0.85x the measured
   receive rate) lands in the affordability band of the intended layer:
   4.2 Mb/s forces both received streams to 15 fps, 2.4 Mb/s to 7.5 fps. *)
let first_cap = 4.2e6
let second_cap = 2.4e6

let compute ?(quick = false) () =
  let phase = if quick then 12.0 else 30.0 in
  let stack = Common.make_scallop ~seed:23 () in
  let _mid, members = Common.scallop_meeting stack ~participants:3 ~senders:3 () in
  let pids = List.map fst members in
  let p1 = List.nth pids 0 and p2 = List.nth pids 1 and p3 = List.nth pids 2 in
  let p3_ip = Common.client_ip 2 in
  Common.run_for stack.engine ~seconds:phase;
  Link.set_rate (Netsim.Network.downlink stack.network ~ip:p3_ip) first_cap;
  Common.run_for stack.engine ~seconds:phase;
  Link.set_rate (Netsim.Network.downlink stack.network ~ip:p3_ip) second_cap;
  Common.run_for stack.engine ~seconds:phase;
  (* collect series *)
  let send_conn = Option.get (Scallop.Controller.send_connection stack.controller p1) in
  let send_series = Option.get (Webrtc.Client.send_fps_series send_conn) in
  let rx_conns =
    List.filter_map
      (fun from -> Scallop.Controller.recv_connection stack.controller p3 ~from)
      [ p1; p2 ]
  in
  let receivers = List.filter_map Webrtc.Client.receiver rx_conns in
  let fps_bins rx = Timeseries.bins (Codec.Video_receiver.fps_series rx) in
  let rate_bins rx = Timeseries.bins (Codec.Video_receiver.bitrate_series rx) in
  let horizon = int_of_float (3.0 *. phase) in
  let at_bin bins s =
    Array.fold_left
      (fun acc (time, v) -> if time / 1_000_000_000 = s then acc +. v else acc)
      0.0 bins
  in
  let send_bins = Timeseries.bins send_series in
  let series =
    List.init horizon (fun s ->
        let p3_fps =
          List.fold_left (fun acc rx -> acc +. at_bin (fps_bins rx) s) 0.0 receivers
          /. float_of_int (List.length receivers)
        in
        let p3_bytes = List.fold_left (fun acc rx -> acc +. at_bin (rate_bins rx) s) 0.0 receivers in
        {
          t_s = float_of_int s;
          send_fps = at_bin send_bins s;
          p3_recv_fps = p3_fps;
          p3_recv_kbps = p3_bytes *. 8.0 /. 1000.0;
        })
  in
  let mean_fps lo hi =
    let xs = List.filter (fun x -> x.t_s >= lo && x.t_s < hi) series in
    List.fold_left (fun acc x -> acc +. x.p3_recv_fps) 0.0 xs /. float_of_int (max 1 (List.length xs))
  in
  let freezes =
    List.fold_left (fun acc rx -> acc + Codec.Video_receiver.freezes rx) 0 receivers
  in
  let final_target =
    Scallop.Switch_agent.current_target stack.agent
      ~meeting:(Scallop.Controller.agent_meeting_id stack.controller 0)
      ~sender:p1 ~receiver:p3
  in
  (* the QoE engine's independent view of the constrained receiver: the
     same no-freeze claim plus layer residency and mouth-to-ear tails *)
  let now_ns = Netsim.Engine.now stack.engine in
  let p3_qoe =
    List.filter_map
      (fun c ->
        let k = Scallop_obs.Qoe.key_of c in
        if k.Scallop_obs.Qoe.k_receiver = p3 && k.Scallop_obs.Qoe.k_kind = Scallop_obs.Qoe.Video
        then Some (Scallop_obs.Qoe.summary c ~now_ns)
        else None)
      (Scallop_obs.Qoe.all ())
  in
  {
    series;
    final_target;
    freezes;
    initial_fps = mean_fps (phase -. 6.0) phase;
    mid_fps = mean_fps ((2.0 *. phase) -. 6.0) (2.0 *. phase);
    late_fps = mean_fps ((3.0 *. phase) -. 6.0) (3.0 *. phase);
    p3_qoe;
  }

let claims =
  [
    Claim.int "Fig 14" "freezes" ~paper:"none" ~eq:0 (fun r -> r.freezes);
    Claim.float "Fig 14" "fps before the first cap" ~paper:"30" ~decimals:1 ~gt:25.0
      (fun r -> r.initial_fps);
    Claim.float "Fig 14" "fps after the first cap" ~paper:"15" ~decimals:1 ~gt:10.0 ~lt:22.0
      (fun r -> r.mid_fps);
    Claim.float "Fig 14" "fps after the second cap" ~paper:"steps down again" ~decimals:1
      ~lt:11.0 (fun r -> r.late_fps);
    Claim.holds "Fig 14" "ends at the base layer" ~paper:"7.5 fps decode target"
      (fun r -> r.final_target = Av1.Dd.DT_7_5fps);
  ]

let print r =
  let table =
    Table.create ~title:"Fig 14: Scallop rate adaptation (P3 downlink constrained twice)"
      ~columns:[ "t (s)"; "P1 send fps"; "P3 recv fps"; "P3 recv kb/s" ]
  in
  List.iter
    (fun s ->
      if int_of_float s.t_s mod 3 = 0 then
        Table.add_row table
          [
            Table.cell_f ~decimals:0 s.t_s;
            Table.cell_f ~decimals:1 s.send_fps;
            Table.cell_f ~decimals:1 s.p3_recv_fps;
            Table.cell_f ~decimals:0 s.p3_recv_kbps;
          ])
    r.series;
  Table.print table;
  List.iter
    (fun (s : Scallop_obs.Qoe.summary) ->
      Printf.printf
        "qoe engine %s: layers %.0f/%.0f/%.0f%%, m2e p50/p99 %s/%s ms, \
         freeze ratio %.2f%%, loss %.2f%%\n"
        (Scallop_obs.Qoe.key_str s.Scallop_obs.Qoe.s_key)
        (100.0 *. s.Scallop_obs.Qoe.s_layer_share.(0))
        (100.0 *. s.Scallop_obs.Qoe.s_layer_share.(1))
        (100.0 *. s.Scallop_obs.Qoe.s_layer_share.(2))
        (match s.Scallop_obs.Qoe.s_m2e_p50_ms with
        | None -> "-"
        | Some v -> Printf.sprintf "%.1f" v)
        (match s.Scallop_obs.Qoe.s_m2e_p99_ms with
        | None -> "-"
        | Some v -> Printf.sprintf "%.1f" v)
        (100.0 *. s.Scallop_obs.Qoe.s_freeze_ratio)
        (100.0 *. s.Scallop_obs.Qoe.s_loss_ratio))
    r.p3_qoe
