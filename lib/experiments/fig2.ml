module Table = Scallop_util.Table
module Rng = Scallop_util.Rng

type row = { size : int; min : int; median : float; max : int; bound : int }

type result = {
  rows : row list;
  streams_at_10 : int;
  streams_at_25 : int;
  two_party_fraction : float;
}

let of_dataset dataset =
  let rows =
    Trace.Dataset.fig2_rows dataset
    |> List.map (fun (size, min, median, max, bound) -> { size; min; median; max; bound })
  in
  let max_at n =
    match List.find_opt (fun r -> r.size = n) rows with Some r -> r.max | None -> 0
  in
  {
    rows;
    streams_at_10 = max_at 10;
    streams_at_25 = max_at 25;
    two_party_fraction = Trace.Dataset.two_party_fraction dataset;
  }

let compute ?(quick = false) () =
  let meetings = if quick then 4_000 else 19_704 in
  of_dataset (Trace.Dataset.generate (Rng.create 7) ~meetings ())

let claims =
  [
    Claim.int "Fig 2" "max streams at 10 participants" ~paper:"~200" ~gt:120 ~le:260
      (fun r -> r.streams_at_10);
    Claim.int "Fig 2" "max streams at 25 participants" ~paper:">700" ~gt:700
      (fun r -> r.streams_at_25);
    Claim.float "Fig 2" "two-party meetings %" ~paper:"60%" ~decimals:0 ~gt:50.0 ~lt:70.0
      (fun r -> 100.0 *. r.two_party_fraction);
  ]

let print r =
  let table =
    Table.create ~title:"Fig 2: media streams at the SFU per meeting size"
      ~columns:[ "participants"; "min"; "median"; "max"; "2N^2 bound" ]
  in
  List.iter
    (fun row ->
      if row.size <= 30 then
        Table.add_row table
          [
            Table.cell_i row.size;
            Table.cell_i row.min;
            Table.cell_f ~decimals:1 row.median;
            Table.cell_i row.max;
            Table.cell_i row.bound;
          ])
    r.rows;
  Table.print table
