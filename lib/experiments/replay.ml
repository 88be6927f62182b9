module Table = Scallop_util.Table
module Rng = Scallop_util.Rng
module Engine = Netsim.Engine

type result = {
  meetings_replayed : int;
  peak_participants : int;
  joins : int;
  leaves : int;
  data_plane_packet_fraction : float;
  data_plane_byte_fraction : float;
  migrations : int;
  freezes : int;
}

(* Compress one busy trace hour into the simulated window: a meeting that
   starts s seconds into the hour joins at s/compression. *)
let compute ?(quick = false) () =
  let window_s = if quick then 20.0 else 60.0 in
  let max_participants = if quick then 24 else 60 in
  let compression = 3600.0 /. window_s in
  let dataset = Trace.Dataset.generate (Rng.create 7) ~days:3 ~meetings:4000 () in
  (* the busiest weekday hour: 10:00-11:00 on day 2 *)
  let hour_ns = 3_600_000_000_000 in
  let win_lo = (2 * 24 * hour_ns) + (10 * hour_ns) in
  let win_hi = win_lo + hour_ns in
  let candidates =
    Array.to_list dataset.Trace.Dataset.meetings
    |> List.filter (fun m ->
           m.Trace.Dataset.start_ns >= win_lo
           && m.Trace.Dataset.start_ns < win_hi
           && m.Trace.Dataset.size <= 6)
  in
  let stack = Common.make_scallop ~seed:81 () in
  let joins = ref 0 and leaves = ref 0 and live = ref 0 and peak = ref 0 in
  let replayed = ref 0 in
  let index = ref 0 in
  let receivers = ref [] in
  let schedule_meeting (m : Trace.Dataset.meeting) =
    if !index + m.Trace.Dataset.size <= max_participants * 4 then begin
      incr replayed;
      let start_s = float_of_int (m.Trace.Dataset.start_ns - win_lo) /. 1e9 /. compression in
      let dur_s =
        Float.max 4.0 (float_of_int m.Trace.Dataset.duration_ns /. 1e9 /. compression)
      in
      Engine.at stack.Common.engine ~time:(Engine.sec start_s) (fun () ->
          if !live + m.Trace.Dataset.size <= max_participants then begin
            let mid = Scallop.Controller.create_meeting stack.Common.controller in
            let members =
              List.init m.Trace.Dataset.size (fun _ ->
                  let i = !index in
                  incr index;
                  let client =
                    Common.add_client stack.Common.engine stack.Common.network
                      stack.Common.rng ~index:i ()
                  in
                  incr joins;
                  incr live;
                  peak := max !peak !live;
                  (Scallop.Controller.join stack.Common.controller mid client
                     ~send_media:true, client))
            in
            List.iter
              (fun (_, c) ->
                receivers :=
                  (Webrtc.Client.connections c |> List.filter_map Webrtc.Client.receiver)
                  @ !receivers)
              members;
            Engine.schedule stack.Common.engine ~after:(Engine.sec dur_s) (fun () ->
                List.iter
                  (fun (pid, _) ->
                    incr leaves;
                    decr live;
                    Scallop.Controller.leave stack.Common.controller pid)
                  members)
          end)
    end
  in
  List.iter schedule_meeting candidates;
  Common.run_for stack.Common.engine ~seconds:window_s;
  let c = Scallop.Dataplane.ingress_counters stack.Common.dp in
  let dp_p = c.rtp_audio_pkts + c.rtp_video_pkts + c.rtcp_sr_sdes_pkts in
  let cpu_p = c.rtcp_rr_pkts + c.rtcp_remb_pkts + c.stun_pkts + c.rtp_av1_ds_pkts in
  let dp_b = c.rtp_audio_bytes + c.rtp_video_bytes + c.rtcp_sr_sdes_bytes in
  let cpu_b = c.rtcp_rr_bytes + c.rtcp_remb_bytes + c.stun_bytes + c.rtp_av1_ds_bytes in
  let freezes =
    List.fold_left (fun acc rx -> acc + Codec.Video_receiver.freezes rx) 0 !receivers
  in
  {
    meetings_replayed = !replayed;
    peak_participants = !peak;
    joins = !joins;
    leaves = !leaves;
    data_plane_packet_fraction = float_of_int dp_p /. float_of_int (dp_p + cpu_p);
    data_plane_byte_fraction = float_of_int dp_b /. float_of_int (dp_b + cpu_b);
    migrations =
      Scallop_obs.Metrics.read ~labels:[ ("switch", "sw0") ] "scallop_agent_migrations";
    freezes;
  }

let claims =
  [
    Claim.float "§1" "data-plane packets %" ~paper:"96.5%" ~gt:95.5
      (fun r -> 100.0 *. r.data_plane_packet_fraction);
    Claim.float "§1" "data-plane bytes %" ~paper:"99.7%" ~gt:99.5
      (fun r -> 100.0 *. r.data_plane_byte_fraction);
    Claim.int "§1" "joins" ~paper:"joins and leaves at trace times" ~gt:20 (fun r -> r.joins);
    Claim.int "§1" "leaves" ~paper:"joins and leaves at trace times" ~gt:5 (fun r -> r.leaves);
    Claim.int "§1" "tree migrations" ~paper:"joins and leaves at trace times" ~gt:5 (fun r -> r.migrations);
    Claim.int "§1" "decoder freezes" ~paper:"none under churn" ~eq:0 (fun r -> r.freezes);
  ]

let print r =
  let table =
    Table.create ~title:"Campus-trace replay through Scallop (1 headline)"
      ~columns:[ "metric"; "value" ]
  in
  Table.add_row table [ "meetings replayed"; Table.cell_i r.meetings_replayed ];
  Table.add_row table [ "peak concurrent participants"; Table.cell_i r.peak_participants ];
  Table.add_row table [ "joins / leaves"; Printf.sprintf "%d / %d" r.joins r.leaves ];
  Table.add_row table [ "tree migrations"; Table.cell_i r.migrations ];
  Table.add_row table
    [ "data-plane packets"; Table.cell_pct r.data_plane_packet_fraction ];
  Table.add_row table [ "data-plane bytes"; Table.cell_pct r.data_plane_byte_fraction ];
  Table.add_row table [ "decoder freezes"; Table.cell_i r.freezes ];
  Table.print table
