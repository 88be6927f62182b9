module Stats = Scallop_util.Stats
module Table = Scallop_util.Table
module Link = Netsim.Link

type dist = { median_us : float; p90_us : float; p99_us : float; samples : int }

type result = {
  scallop : dist;
  software : dist;
  scallop_samples : Stats.Samples.t;
  software_samples : Stats.Samples.t;
  median_ratio : float;
  p99_ratio : float;
}

(* Testbed-style links: same rack, 2 µs propagation, heavy-tailed end-host
   receive jitter (median 2 µs, long tail) shared by both setups. *)
let testbed_link =
  {
    Link.default with
    rate_bps = 1e9;
    propagation_ns = 2_000;
    jitter = Link.Heavy_tail { median_ns = 1_000.0; sigma = 1.1 };
  }

(* The Tofino's ports run at 100 Gb/s — serialization there is negligible,
   which is part of the hardware win; the software SFU sits behind the
   same 1 Gb/s NIC as the clients. *)
let tofino_link =
  { testbed_link with rate_bps = 100e9; propagation_ns = 1_000; jitter = Link.No_jitter }

(* Software SFU per-leg costs: ~7 µs of work plus a ~250 µs event-loop /
   scheduler / socket wakeup per leg, occasional context-switch spikes —
   a userspace SFU worker (DESIGN.md §4 documents the calibration). *)
let software_cpu =
  {
    Netsim.Cpu_queue.cores = 4;
    service_ns_per_packet = 7_000;
    service_ns_per_byte = 0;
    spike_probability = 0.015;
    spike_mu = log 50_000.0;
    spike_sigma = 0.8;
    max_queue_delay_ns = 500_000_000;
    wakeup_latency_ns = 250_000;
  }

(* One-way media delay measured frame-by-frame: first transmission of an
   (ssrc, rtp-timestamp) pair at the sender vs its first arrival at the
   receiver. Matching on the RTP timestamp survives the software SFU's
   sequence-number re-origination. *)
let measure engine clients =
  let samples = Stats.Samples.create () in
  let tx = Hashtbl.create 4096 in
  let matched = Hashtbl.create 4096 in
  let key buf =
    match Rtp.Demux.classify buf with
    | Rtp.Demux.Rtp_media -> (
        match Rtp.Packet.parse buf with
        | exception Rtp.Wire.Parse_error _ -> None
        | pkt -> Some (pkt.Rtp.Packet.ssrc, pkt.Rtp.Packet.timestamp))
    | _ -> None
  in
  ignore engine;
  List.iter
    (fun client ->
      Webrtc.Client.set_tx_hook client (fun ~time_ns dgram ->
          match key dgram.Netsim.Dgram.payload with
          | Some k ->
              if not (Hashtbl.mem tx k || Hashtbl.mem matched k) then
                Hashtbl.replace tx k time_ns
          | None -> ());
      Webrtc.Client.set_rx_hook client (fun ~time_ns dgram ->
          match key dgram.Netsim.Dgram.payload with
          | Some k -> (
              match Hashtbl.find_opt tx k with
              | Some sent ->
                  Hashtbl.remove tx k;
                  Hashtbl.replace matched k ();
                  if Hashtbl.length matched > 200_000 then Hashtbl.reset matched;
                  Stats.Samples.observe samples (float_of_int (time_ns - sent))
              | None -> ())
          | None -> ()))
    clients;
  samples

let dist_of samples =
  {
    median_us = Stats.Samples.percentile samples 50.0 /. 1_000.0;
    p90_us = Stats.Samples.percentile samples 90.0 /. 1_000.0;
    p99_us = Stats.Samples.percentile samples 99.0 /. 1_000.0;
    samples = Stats.Samples.count samples;
  }

let compute ?(quick = false) () =
  let seconds = if quick then 20.0 else 60.0 in
  (* Scallop *)
  let st = Common.make_scallop ~seed:31 ~switch_link:tofino_link () in
  let _, members =
    Common.scallop_meeting st ~participants:2 ~senders:2 ~uplink:testbed_link
      ~downlink:testbed_link ()
  in
  let samples_scallop = measure st.engine (List.map snd members) in
  Common.run_for st.engine ~seconds;
  (* Software *)
  let sw = Common.make_software ~seed:31 ~cpu:software_cpu ~switch_link:testbed_link () in
  let _, smembers =
    Common.software_meeting sw ~participants:2 ~senders:2 ~uplink:testbed_link
      ~downlink:testbed_link ()
  in
  let samples_software = measure sw.s_engine (List.map snd smembers) in
  Common.run_for sw.s_engine ~seconds;
  let scallop = dist_of samples_scallop and software = dist_of samples_software in
  {
    scallop;
    software;
    scallop_samples = samples_scallop;
    software_samples = samples_software;
    median_ratio = software.median_us /. scallop.median_us;
    p99_ratio = software.p99_us /. scallop.p99_us;
  }

let claims =
  [
    Claim.float "Fig 19" "median latency ratio" ~paper:"26.8x" ~decimals:1 ~gt:10.0
      (fun r -> r.median_ratio);
    Claim.float "Fig 19" "p99 latency ratio" ~paper:"8.5x" ~decimals:1 ~gt:4.0
      (fun r -> r.p99_ratio);
  ]

let print r =
  let table =
    Table.create ~title:"Fig 19: per-packet one-way forwarding latency (us)"
      ~columns:[ "SFU"; "median"; "p90"; "p99"; "samples" ]
  in
  let row name d =
    Table.add_row table
      [
        name;
        Table.cell_f d.median_us;
        Table.cell_f d.p90_us;
        Table.cell_f d.p99_us;
        Table.cell_i d.samples;
      ]
  in
  row "Scallop (Tofino2)" r.scallop;
  row "Software (32-core)" r.software;
  Table.print table;
  (* Fig 19 is a CDF; print a few points of each curve *)
  let cdf_table =
    Table.create ~title:"Fig 19 CDF points" ~columns:[ "fraction"; "Scallop (us)"; "software (us)" ]
  in
  List.iter
    (fun p ->
      cdf_table |> fun tbl ->
      Table.add_row tbl
        [
          Table.cell_f p;
          Table.cell_f (Stats.Samples.percentile r.scallop_samples (100.0 *. p) /. 1000.0);
          Table.cell_f (Stats.Samples.percentile r.software_samples (100.0 *. p) /. 1000.0);
        ])
    [ 0.10; 0.25; 0.50; 0.75; 0.90; 0.99 ];
  Table.print cdf_table
