module Table = Scallop_util.Table
module Rng = Scallop_util.Rng
module Timeseries = Scallop_util.Timeseries

type day = { day : int; peak_meetings : float; peak_participants : float }

type result = {
  days : day list;
  overall_peak_meetings : float;
  overall_peak_participants : float;
  weekend_weekday_ratio : float;
}

let day_ns = 24 * 3_600_000_000_000

let daily_peaks ts ~days =
  let peaks = Array.make days 0.0 in
  Array.iter
    (fun (time, v) ->
      let d = time / day_ns in
      if d >= 0 && d < days then peaks.(d) <- Float.max peaks.(d) v)
    (Timeseries.bins ts);
  peaks

let compute ?(quick = false) () =
  let meetings = if quick then 4_000 else 19_704 in
  let days = 14 in
  let dataset = Trace.Dataset.generate (Rng.create 7) ~days ~meetings () in
  let meetings_ts, participants_ts =
    Trace.Dataset.concurrency_series dataset ~bin_ns:60_000_000_000
  in
  let m_peaks = daily_peaks meetings_ts ~days in
  let p_peaks = daily_peaks participants_ts ~days in
  let day_rows =
    List.init days (fun d ->
        { day = d; peak_meetings = m_peaks.(d); peak_participants = p_peaks.(d) })
  in
  let weekday, weekend =
    List.partition (fun d -> d.day mod 7 < 5) day_rows
  in
  let peak_of rows = List.fold_left (fun acc d -> Float.max acc d.peak_meetings) 0.0 rows in
  {
    days = day_rows;
    overall_peak_meetings = Array.fold_left Float.max 0.0 m_peaks;
    overall_peak_participants = Array.fold_left Float.max 0.0 p_peaks;
    weekend_weekday_ratio = peak_of weekend /. Float.max 1.0 (peak_of weekday);
  }

let claims =
  [
    Claim.float "Figs 20-21" "weekend/weekday peak ratio" ~paper:"quiet weekends" ~lt:0.5
      (fun r -> r.weekend_weekday_ratio);
  ]

let print r =
  let table =
    Table.create ~title:"Figs 20-21: daily peak concurrency (campus, 2 weeks)"
      ~columns:[ "day"; "peak meetings"; "peak participants" ]
  in
  List.iter
    (fun d ->
      Table.add_row table
        [
          Printf.sprintf "%d (%s)" d.day
            (if d.day mod 7 >= 5 then "weekend" else "weekday");
          Table.cell_f ~decimals:0 d.peak_meetings;
          Table.cell_f ~decimals:0 d.peak_participants;
        ])
    r.days;
  Table.print table;
  Printf.printf "overall peaks: %.0f meetings, %.0f participants\n"
    r.overall_peak_meetings r.overall_peak_participants
