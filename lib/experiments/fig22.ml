module Table = Scallop_util.Table
module Rng = Scallop_util.Rng
module Timeseries = Scallop_util.Timeseries

type result = {
  software_peak_mbps : float;
  agent_peak_mbps : float;
  reduction : float;
  daily_software_peaks : (int * float) list;
}

let day_ns = 24 * 3_600_000_000_000

let compute ?(quick = false) () =
  (* one week of the two-week dataset: half of its 19,704 meetings *)
  let meetings = if quick then 4_000 else 9_852 in
  let dataset = Trace.Dataset.generate (Rng.create 7) ~days:7 ~meetings () in
  let software, agent = Trace.Dataset.byte_rate_series dataset ~bin_ns:300_000_000_000 in
  let to_mbps rates = Array.map (fun (t, bytes_per_s) -> (t, bytes_per_s *. 8.0 /. 1e6)) rates in
  let sw = to_mbps (Timeseries.rates_per_second software) in
  let ag = to_mbps (Timeseries.rates_per_second agent) in
  let peak a = Array.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 a in
  let daily =
    List.init 7 (fun d ->
        let lo = float_of_int (d * day_ns) /. 1e9 and hi = float_of_int ((d + 1) * day_ns) /. 1e9 in
        let p =
          Array.fold_left
            (fun acc (t, v) -> if t >= lo && t < hi then Float.max acc v else acc)
            0.0 sw
        in
        (d, p))
  in
  let software_peak_mbps = peak sw and agent_peak_mbps = peak ag in
  {
    software_peak_mbps;
    agent_peak_mbps;
    reduction = software_peak_mbps /. Float.max 0.001 agent_peak_mbps;
    daily_software_peaks = daily;
  }

let claims =
  [
    Claim.float "Fig 22" "software/agent peak ratio" ~paper:"~284x" ~decimals:0 ~gt:200.0
      (fun r -> r.reduction);
    Claim.float "Fig 22" "software SFU peak Mb/s" ~paper:"~1250 (within 2x)" ~decimals:1
      ~gt:625.0 ~lt:2500.0 (fun r -> r.software_peak_mbps);
    Claim.float "Fig 22" "switch agent peak Mb/s" ~paper:"~4.4 (within 2x)" ~gt:2.2 ~lt:8.8
      (fun r -> r.agent_peak_mbps);
  ]

let print r =
  let table =
    Table.create ~title:"Fig 22: bytes processed in software, campus week"
      ~columns:[ "day"; "software SFU peak (Mb/s)" ]
  in
  List.iter
    (fun (d, p) -> Table.add_row table [ Table.cell_i d; Table.cell_f ~decimals:1 p ])
    r.daily_software_peaks;
  Table.print table
