module Table = Scallop_util.Table

type row = {
  label : string;
  packets : float;
  packet_pct : float;
  per_sec : float;
  kbytes : float;
  byte_pct : float;
}

type result = {
  rows : row list;
  data_plane_packet_fraction : float;
  data_plane_byte_fraction : float;
}

let compute ?(quick = false) () =
  let seconds = if quick then 60.0 else 600.0 in
  let stack = Common.make_scallop ~seed:11 () in
  let _mid, _members = Common.scallop_meeting stack ~participants:3 ~senders:3 () in
  Common.run_for stack.engine ~seconds;
  let c = Scallop.Dataplane.ingress_counters stack.dp in
  (* per participant, as the paper reports *)
  let participants = 3.0 in
  let f x = float_of_int x /. participants in
  let rtp_p = f (c.rtp_audio_pkts + c.rtp_video_pkts + c.rtp_av1_ds_pkts) in
  let rtp_b = f (c.rtp_audio_bytes + c.rtp_video_bytes + c.rtp_av1_ds_bytes) in
  let rtcp_p = f (c.rtcp_sr_sdes_pkts + c.rtcp_rr_pkts + c.rtcp_remb_pkts) in
  let rtcp_b = f (c.rtcp_sr_sdes_bytes + c.rtcp_rr_bytes + c.rtcp_remb_bytes) in
  let stun_p = f c.stun_pkts and stun_b = f c.stun_bytes in
  let total_p = rtp_p +. rtcp_p +. stun_p in
  let total_b = rtp_b +. rtcp_b +. stun_b in
  let ctrl_p = f (c.rtcp_rr_pkts + c.rtcp_remb_pkts + c.stun_pkts + c.rtp_av1_ds_pkts) in
  let ctrl_b = f (c.rtcp_rr_bytes + c.rtcp_remb_bytes + c.stun_bytes + c.rtp_av1_ds_bytes) in
  let data_p = total_p -. ctrl_p and data_b = total_b -. ctrl_b in
  let row label packets bytes =
    {
      label;
      packets;
      packet_pct = 100.0 *. packets /. total_p;
      per_sec = packets /. seconds;
      kbytes = bytes /. 1024.0;
      byte_pct = 100.0 *. bytes /. total_b;
    }
  in
  let rows =
    [
      row "RTP" rtp_p rtp_b;
      row "- Audio" (f c.rtp_audio_pkts) (f c.rtp_audio_bytes);
      row "- Video" (f c.rtp_video_pkts) (f c.rtp_video_bytes);
      row "- AV1 DS*" (f c.rtp_av1_ds_pkts) (f c.rtp_av1_ds_bytes);
      row "RTCP" rtcp_p rtcp_b;
      row "- SR/SDES" (f c.rtcp_sr_sdes_pkts) (f c.rtcp_sr_sdes_bytes);
      row "- RR*" (f c.rtcp_rr_pkts) (f c.rtcp_rr_bytes);
      row "- RR/REMB*" (f c.rtcp_remb_pkts) (f c.rtcp_remb_bytes);
      row "STUN*" stun_p stun_b;
      row "Ctrl. Plane" ctrl_p ctrl_b;
      row "Data Plane" data_p data_b;
      row "Total" total_p total_b;
    ]
  in
  {
    rows;
    data_plane_packet_fraction = data_p /. total_p;
    data_plane_byte_fraction = data_b /. total_b;
  }

let claims =
  [
    Claim.float "Table 1" "data-plane packets %" ~paper:"96.46%" ~gt:94.0
      (fun r -> 100.0 *. r.data_plane_packet_fraction);
    Claim.float "Table 1" "data-plane bytes %" ~paper:"99.65%" ~gt:99.0
      (fun r -> 100.0 *. r.data_plane_byte_fraction);
  ]

let print r =
  let table =
    Table.create ~title:"Table 1: Packets per participant sent to SFU"
      ~columns:[ "Proto./Type"; "Packets"; "Pct."; "Per sec."; "KBytes"; "Pct." ]
  in
  List.iter
    (fun row ->
      Table.add_row table
        [
          row.label;
          Table.cell_f ~decimals:0 row.packets;
          Table.cell_f row.packet_pct;
          Table.cell_f row.per_sec;
          Table.cell_f ~decimals:0 row.kbytes;
          Table.cell_f row.byte_pct;
        ])
    r.rows;
  Table.print table
