module Table = Scallop_util.Table
module Link = Netsim.Link

type result = {
  fast_kbps : float;
  slow_kbps : float;
  fast_fps : float;
  slow_fps : float;
  freezes : int;
}

let compute ?(quick = false) () =
  let seconds = if quick then 25.0 else 60.0 in
  let stack = Common.make_scallop ~seed:44 () in
  let mid = Scallop.Controller.create_meeting stack.controller in
  let mk i downlink =
    Common.add_client stack.engine stack.network stack.rng ~index:i ~downlink ()
  in
  let sender = mk 0 (Common.client_link ()) in
  let fast = mk 1 (Common.client_link ()) in
  let slow = mk 2 { (Common.client_link ()) with Link.rate_bps = 1.2e6 } in
  let sp = Scallop.Controller.join ~simulcast:true stack.controller mid sender ~send_media:true in
  let fp = Scallop.Controller.join stack.controller mid fast ~send_media:false in
  let lp = Scallop.Controller.join stack.controller mid slow ~send_media:false in
  Common.run_for stack.engine ~seconds;
  let rx_of pid =
    Scallop.Controller.recv_connection stack.controller pid ~from:sp
    |> Option.get |> Webrtc.Client.receiver |> Option.get
  in
  let fast_rx = rx_of fp and slow_rx = rx_of lp in
  let kbps rx = float_of_int (Codec.Video_receiver.bytes_received rx * 8) /. 1000.0 /. seconds in
  let fps rx = float_of_int (Codec.Video_receiver.frames_decoded rx) /. seconds in
  {
    fast_kbps = kbps fast_rx;
    slow_kbps = kbps slow_rx;
    fast_fps = fps fast_rx;
    slow_fps = fps slow_rx;
    freezes = Codec.Video_receiver.freezes fast_rx + Codec.Video_receiver.freezes slow_rx;
  }

let claims =
  [
    Claim.int "§3" "freezes" ~paper:"one continuous stream" ~eq:0 (fun r -> r.freezes);
    Claim.float "§3" "healthy receiver fps" ~paper:"full frame rate" ~decimals:1 ~gt:27.0
      (fun r -> r.fast_fps);
    Claim.float "§3" "constrained receiver fps" ~paper:"full frame rate" ~decimals:1 ~gt:27.0
      (fun r -> r.slow_fps);
    Claim.float "§3" "constrained/healthy receive rate" ~paper:"cheaper rendition" ~lt:0.6
      (fun r -> r.slow_kbps /. r.fast_kbps);
  ]

let print r =
  let table =
    Table.create ~title:"Simulcast splicing (3: the Simulcast sibling of SVC)"
      ~columns:[ "receiver"; "receive rate (kb/s)"; "decoded fps" ]
  in
  Table.add_row table
    [ "healthy downlink"; Table.cell_f ~decimals:0 r.fast_kbps; Table.cell_f ~decimals:1 r.fast_fps ];
  Table.add_row table
    [ "1.2 Mb/s downlink"; Table.cell_f ~decimals:0 r.slow_kbps; Table.cell_f ~decimals:1 r.slow_fps ];
  Table.print table
