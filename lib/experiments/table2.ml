module Table = Scallop_util.Table
module Addr = Scallop_util.Addr

type result = {
  duration_s : float;
  packets : int;
  packets_per_s : float;
  flows : int;
  megabytes : float;
  mbit_per_s : float;
  rtp_streams : int;
  senders : int;
}

let compute ?(quick = false) () =
  let duration_s = if quick then 30.0 else 120.0 in
  let meetings = if quick then 2 else 4 in
  let stack = Common.make_scallop ~seed:71 () in
  let flows = Hashtbl.create 256 in
  let ssrcs = Hashtbl.create 64 in
  let packets = ref 0 in
  let bytes = ref 0 in
  let senders = ref 0 in
  (* capture at the switch, where the campus capture's filter ran *)
  List.iter
    (fun i ->
      let sizes = [| 2; 3; 4; 5 |] in
      let participants = sizes.(i mod Array.length sizes) in
      senders := !senders + participants;
      let _, members =
        Common.scallop_meeting stack ~participants ~senders:participants
          ~index_base:(i * 10) ()
      in
      List.iter
        (fun (_, client) ->
          Webrtc.Client.set_tx_hook client (fun ~time_ns:_ dgram ->
              incr packets;
              bytes := !bytes + Netsim.Dgram.wire_size dgram;
              Hashtbl.replace flows (dgram.Netsim.Dgram.src, dgram.Netsim.Dgram.dst) ();
              match Rtp.Demux.classify dgram.Netsim.Dgram.payload with
              | Rtp.Demux.Rtp_media ->
                  (try
                     let p = Rtp.Packet.parse dgram.Netsim.Dgram.payload in
                     Hashtbl.replace ssrcs p.Rtp.Packet.ssrc ()
                   with Rtp.Wire.Parse_error _ -> ())
              | _ -> ()))
        members)
    (List.init meetings Fun.id);
  Common.run_for stack.engine ~seconds:duration_s;
  (* the switch also emits towards clients: count its egress too, as the
     capture point (a border switch) would *)
  let egress_pkts = Scallop.Dataplane.egress_pkts stack.dp in
  let egress_bytes = Scallop.Dataplane.egress_bytes stack.dp in
  let total_packets = !packets + egress_pkts in
  let total_bytes = !bytes + egress_bytes in
  {
    duration_s;
    packets = total_packets;
    packets_per_s = float_of_int total_packets /. duration_s;
    flows = Hashtbl.length flows * 2 (* both directions *);
    megabytes = float_of_int total_bytes /. 1e6;
    mbit_per_s = float_of_int (total_bytes * 8) /. 1e6 /. duration_s;
    rtp_streams = Hashtbl.length ssrcs;
    senders = !senders;
  }

let claims =
  [
    Claim.float "Table 2" "RTP media streams per sender" ~paper:"one per medium" ~eq:2.0
      (fun r -> float_of_int r.rtp_streams /. float_of_int r.senders);
    Claim.int "Table 2" "flows" ~paper:"both directions per leg" ~gt:10 (fun r -> r.flows);
    Claim.float "Table 2" "Mbit/s" ~paper:"media-dominated" ~decimals:1 ~gt:5.0
      (fun r -> r.mbit_per_s);
  ]

let print r =
  let table = Table.create ~title:"Table 2: capture summary (simulated)" ~columns:[ "metric"; "value" ] in
  Table.add_row table [ "Capture duration"; Printf.sprintf "%.0f s" r.duration_s ];
  Table.add_row table
    [ "VCA packets"; Printf.sprintf "%d (%.0f/s)" r.packets r.packets_per_s ];
  Table.add_row table [ "VCA flows"; Table.cell_i r.flows ];
  Table.add_row table
    [ "VCA data"; Printf.sprintf "%.1f MB (%.1f Mbit/s)" r.megabytes r.mbit_per_s ];
  Table.add_row table [ "RTP media streams"; Table.cell_i r.rtp_streams ];
  Table.print table
