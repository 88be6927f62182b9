module Table = Scallop_util.Table
module Rng = Scallop_util.Rng
module Timeseries = Scallop_util.Timeseries

type result = {
  rows : Tofino.Resources.row list;
  egress_campus_gbps : float;
  egress_max_gbps : float;
  stages_fit : bool;
}

(* Egress share of the campus byte rate: the fan-out legs, i.e. the
   software series minus the uplink share. *)
let campus_egress_gbps ~quick =
  let meetings = if quick then 4_000 else 19_704 in
  let dataset = Trace.Dataset.generate (Rng.create 7) ~days:7 ~meetings () in
  let software, _ = Trace.Dataset.byte_rate_series dataset ~bin_ns:300_000_000_000 in
  let peak =
    Array.fold_left
      (fun acc (_, bytes_per_s) -> Float.max acc bytes_per_s)
      0.0
      (Timeseries.rates_per_second software)
  in
  (* size/(size+1) of a meeting's legs are egress; ~5/6 for typical sizes *)
  peak *. 8.0 /. 1e9 *. 0.85

let compute ?(quick = false) () =
  let stack = Common.make_scallop ~seed:3 () in
  let _ = Common.scallop_meeting stack ~participants:3 ~senders:3 () in
  Common.run_for stack.engine ~seconds:2.0;
  let program = Scallop.Dataplane.resource_program stack.dp in
  {
    rows = Tofino.Resources.report program;
    egress_campus_gbps = campus_egress_gbps ~quick;
    egress_max_gbps =
      float_of_int Scallop.Dataplane.stream_index_capacity *. 3.0e6 /. 1e9;
    stages_fit = Tofino.Resources.stages_ok program;
  }

let claims =
  [
    Claim.holds "Table 3" "program fits the pipeline" ~paper:"Ing. 7 / Eg. 5 stages"
      (fun r -> r.stages_fit);
    Claim.float "Table 3" "max-utilization egress Gb/s" ~paper:"197" ~decimals:1 ~gt:195.0
      ~lt:199.0 (fun r -> r.egress_max_gbps);
  ]

let print r =
  let table =
    Table.create ~title:"Table 3: Tofino resource usage of the data plane"
      ~columns:[ "Resource type"; "Scaling"; "Usage" ]
  in
  List.iter
    (fun (row : Tofino.Resources.row) ->
      Table.add_row table [ row.resource; row.scaling; row.usage ])
    r.rows;
  Table.add_row table
    [ "Egress Tput (campus peak)"; "Quadratic"; Printf.sprintf "%.1f Gb/s" r.egress_campus_gbps ];
  Table.add_row table
    [ "Egress Tput (max util.)"; "Quadratic"; Printf.sprintf "%.0f Gb/s" r.egress_max_gbps ];
  Table.print table
