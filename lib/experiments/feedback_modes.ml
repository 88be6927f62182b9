module Table = Scallop_util.Table

type result = {
  remb_cpu_pps : float;
  twcc_cpu_pps : float;
  remb_cpu_kbps : float;
  twcc_cpu_kbps : float;
  load_ratio : float;
}

let agent_load ~seconds mode =
  let stack = Common.make_scallop ~seed:61 () in
  let config ~ip = { (Webrtc.Client.default_config ~ip) with feedback_mode = mode } in
  let _ = Common.scallop_meeting stack ~participants:3 ~senders:3 ~config () in
  Common.run_for stack.engine ~seconds;
  ( float_of_int (Scallop.Dataplane.cpu_pkts stack.dp) /. seconds,
    float_of_int (Scallop.Dataplane.cpu_bytes stack.dp) *. 8.0 /. 1000.0 /. seconds )

let compute ?(quick = false) () =
  let seconds = if quick then 30.0 else 120.0 in
  let remb_cpu_pps, remb_cpu_kbps = agent_load ~seconds Webrtc.Client.Remb in
  let twcc_cpu_pps, twcc_cpu_kbps = agent_load ~seconds Webrtc.Client.Twcc in
  {
    remb_cpu_pps;
    twcc_cpu_pps;
    remb_cpu_kbps;
    twcc_cpu_kbps;
    load_ratio = twcc_cpu_pps /. Float.max 0.01 remb_cpu_pps;
  }

let claims =
  [
    Claim.float "§5.2" "TWCC/REMB agent packet ratio" ~paper:"one TWCC per 10-20 media packets"
      ~decimals:1 ~gt:5.0 (fun r -> r.load_ratio);
    Claim.float "§5.2" "REMB agent packets/s" ~paper:"tracks capacity changes" ~decimals:1
      ~lt:60.0 (fun r -> r.remb_cpu_pps);
  ]

let print r =
  let table =
    Table.create ~title:"Feedback mode vs switch-agent load (5.2), 3-party meeting"
      ~columns:[ "mode"; "CPU-port packets/s"; "CPU-port kb/s" ]
  in
  Table.add_row table
    [ "REMB (receiver-driven)"; Table.cell_f ~decimals:1 r.remb_cpu_pps;
      Table.cell_f ~decimals:1 r.remb_cpu_kbps ];
  Table.add_row table
    [ "TWCC (sender-driven)"; Table.cell_f ~decimals:1 r.twcc_cpu_pps;
      Table.cell_f ~decimals:1 r.twcc_cpu_kbps ];
  Table.print table
