module Table = Scallop_util.Table
module Timeseries = Scallop_util.Timeseries
module Engine = Netsim.Engine

(* A Scallop world whose switch agent can be crippled per ablation, and
   a client constructor on its network. *)
let make_stack ~seed ~rewriting_enabled ~feedback_filter =
  let s = Common.make_scallop ~seed ~agent:{ Common.rewriting_enabled; feedback_filter } () in
  ( s.Common.engine,
    s.Common.controller,
    Common.add_client s.Common.engine s.Common.network s.Common.rng )

let tail_rate_kbps rx ~seconds ~window =
  let bins = Timeseries.bins (Codec.Video_receiver.bitrate_series rx) in
  let lo = seconds - window in
  let bytes =
    Array.fold_left
      (fun acc (time, v) ->
        let s = time / 1_000_000_000 in
        if s >= lo && s < seconds then acc +. v else acc)
      0.0 bins
  in
  bytes *. 8.0 /. 1000.0 /. float_of_int window

(* --- §5.3: best-downlink filter vs naive REMB forwarding ------------------ *)

type filter_result = {
  sender_bitrate_filtered : int;
  sender_bitrate_naive : int;
  fast_receiver_kbps_filtered : float;
  fast_receiver_kbps_naive : float;
}

let filter_scenario ~seed ~feedback_filter ~seconds =
  let engine, controller, add_client =
    make_stack ~seed ~rewriting_enabled:true ~feedback_filter
  in
  let mid = Scallop.Controller.create_meeting controller in
  let sender = add_client ~index:0 () in
  let fast = add_client ~index:1 () in
  let slow =
    add_client ~index:2
      ~downlink:{ (Common.client_link ()) with rate_bps = 1.2e6 }
      ()
  in
  let sp = Scallop.Controller.join controller mid sender ~send_media:true in
  let fp = Scallop.Controller.join controller mid fast ~send_media:false in
  let _lp = Scallop.Controller.join controller mid slow ~send_media:false in
  Engine.run engine ~until:(Engine.sec (float_of_int seconds));
  let send_conn = Option.get (Scallop.Controller.send_connection controller sp) in
  let fast_rx =
    Scallop.Controller.recv_connection controller fp ~from:sp
    |> Option.get |> Webrtc.Client.receiver |> Option.get
  in
  (Webrtc.Client.video_bitrate send_conn, tail_rate_kbps fast_rx ~seconds ~window:5)

let filter_ablation ?(quick = false) () =
  let seconds = if quick then 20 else 40 in
  let br_f, kbps_f = filter_scenario ~seed:51 ~feedback_filter:true ~seconds in
  let br_n, kbps_n = filter_scenario ~seed:51 ~feedback_filter:false ~seconds in
  {
    sender_bitrate_filtered = br_f;
    sender_bitrate_naive = br_n;
    fast_receiver_kbps_filtered = kbps_f;
    fast_receiver_kbps_naive = kbps_n;
  }

(* --- §6.2: sequence rewriting vs raw gaps ---------------------------------- *)

type rewrite_result = {
  nacks_with_rewrite : int;
  nacks_without_rewrite : int;
  fps_with_rewrite : float;
  fps_without_rewrite : float;
}

let rewrite_scenario ~seed ~rewriting_enabled ~seconds =
  let engine, controller, add_client =
    make_stack ~seed ~rewriting_enabled ~feedback_filter:true
  in
  let mid = Scallop.Controller.create_meeting controller in
  let sender = add_client ~index:0 () in
  let watcher = add_client ~index:1 () in
  (* a downlink that fits the 15 fps layers but not the full stream *)
  let reduced =
    add_client ~index:2
      ~downlink:{ (Common.client_link ()) with rate_bps = 2.0e6 }
      ()
  in
  let sp = Scallop.Controller.join controller mid sender ~send_media:true in
  let _wp = Scallop.Controller.join controller mid watcher ~send_media:false in
  let rp = Scallop.Controller.join controller mid reduced ~send_media:false in
  Engine.run engine ~until:(Engine.sec (float_of_int seconds));
  let rx =
    Scallop.Controller.recv_connection controller rp ~from:sp
    |> Option.get |> Webrtc.Client.receiver |> Option.get
  in
  let fps =
    float_of_int (Codec.Video_receiver.frames_decoded rx) /. float_of_int seconds
  in
  (Codec.Video_receiver.nacks_sent rx, fps)

let rewrite_ablation ?(quick = false) () =
  let seconds = if quick then 20 else 40 in
  let nacks_r, fps_r = rewrite_scenario ~seed:52 ~rewriting_enabled:true ~seconds in
  let nacks_n, fps_n = rewrite_scenario ~seed:52 ~rewriting_enabled:false ~seconds in
  {
    nacks_with_rewrite = nacks_r;
    nacks_without_rewrite = nacks_n;
    fps_with_rewrite = fps_r;
    fps_without_rewrite = fps_n;
  }

type result = { filter : filter_result; rewrite : rewrite_result }

let compute ?quick () =
  { filter = filter_ablation ?quick (); rewrite = rewrite_ablation ?quick () }

let claims =
  [
    Claim.int "§5.3" "sender b/s with the filter" ~paper:"held by the best downlink"
      ~gt:2_000_000 (fun r -> r.filter.sender_bitrate_filtered);
    Claim.float "§5.3" "sender rate naive/filtered" ~paper:"converges to the slowest receiver"
      ~lt:0.7 (fun r ->
        float_of_int r.filter.sender_bitrate_naive
        /. float_of_int r.filter.sender_bitrate_filtered);
    Claim.int "§6.2" "NACKed seqs with rewriting" ~paper:"gaps masked" ~lt:100
      (fun r -> r.rewrite.nacks_with_rewrite);
    Claim.float "§6.2" "NACKed seqs raw/(rewriting+1)" ~paper:"endless retransmissions"
      ~decimals:0 ~gt:20.0 (fun r ->
        float_of_int r.rewrite.nacks_without_rewrite
        /. float_of_int (r.rewrite.nacks_with_rewrite + 1));
    Claim.float "§6.2" "decoded fps, rewriting minus raw" ~paper:"same adapted rate"
      ~decimals:1 ~gt:(-3.0) ~lt:3.0 (fun r ->
        r.rewrite.fps_with_rewrite -. r.rewrite.fps_without_rewrite);
  ]

let print { filter = f; rewrite = r } =
  let t1 =
    Table.create ~title:"Ablation: best-downlink REMB filter (5.3)"
      ~columns:[ "mode"; "sender encode rate (kb/s)"; "fast receiver rate (kb/s)" ]
  in
  Table.add_row t1
    [ "Scallop filter"; Table.cell_i (f.sender_bitrate_filtered / 1000);
      Table.cell_f ~decimals:0 f.fast_receiver_kbps_filtered ];
  Table.add_row t1
    [ "naive (all REMBs)"; Table.cell_i (f.sender_bitrate_naive / 1000);
      Table.cell_f ~decimals:0 f.fast_receiver_kbps_naive ];
  Table.print t1;
  let t2 =
    Table.create ~title:"Ablation: sequence rewriting (6.2)"
      ~columns:[ "mode"; "NACKed seqs at reduced receiver"; "decoded fps" ]
  in
  Table.add_row t2
    [ "S-LM rewriting"; Table.cell_i r.nacks_with_rewrite;
      Table.cell_f ~decimals:1 r.fps_with_rewrite ];
  Table.add_row t2
    [ "raw gaps"; Table.cell_i r.nacks_without_rewrite;
      Table.cell_f ~decimals:1 r.fps_without_rewrite ];
  Table.print t2
