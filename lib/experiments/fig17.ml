module Table = Scallop_util.Table
module Cap = Scallop.Capacity

type point = {
  participants : int;
  nra : int;
  ra_r : int;
  ra_sr : int;
  tracker_slm : int;
  tracker_slr : int;
  software : int;
}

type result = { two_party : int; points : point list }

(* Stream-tracker line in isolation: rate-adapted output streams per
   meeting at the model's adapted fraction. *)
let tracker_meetings variant ~participants =
  let p = Cap.default in
  let streams =
    p.Cap.tracker_cells / Scallop.Seq_rewrite.words_per_stream variant
  in
  let adapted =
    max 1
      (int_of_float
         (Float.round
            (p.Cap.adapted_fraction *. float_of_int (participants * (participants - 1)))))
  in
  streams / adapted

let compute () =
  let max_n = 30 in
  let two_party = Cap.meetings_supported Cap.Two_party ~participants:2 ~senders:2 () in
  let points =
    List.init (max_n - 2) (fun i ->
        let n = i + 3 in
        {
          participants = n;
          nra = Cap.meetings_supported Cap.Nra ~participants:n ~senders:n ();
          ra_r = Cap.meetings_supported Cap.Ra_r ~participants:n ~senders:n ();
          ra_sr = Cap.meetings_supported Cap.Ra_sr ~participants:n ~senders:n ();
          tracker_slm = tracker_meetings Scallop.Seq_rewrite.S_LM ~participants:n;
          tracker_slr = tracker_meetings Scallop.Seq_rewrite.S_LR ~participants:n;
          software =
            Sfu.Capacity.meetings_supported ~participants:n ~senders:n ~media_types:2 ();
        })
  in
  { two_party; points }

let at n r = List.find (fun p -> p.participants = n) r.points

let claims =
  [
    Claim.int "Fig 17" "two-party meetings" ~paper:"533K" ~gt:500_000 ~lt:560_000
      (fun r -> r.two_party);
    Claim.int "Fig 17" "NRA meetings at 3p" ~paper:"128K" ~gt:120_000 (fun r -> (at 3 r).nra);
    Claim.int "Fig 17" "RA-R meetings at 3p" ~paper:"42.7K" ~gt:40_000 ~lt:46_000
      (fun r -> (at 3 r).ra_r);
    Claim.int "Fig 17" "RA-SR meetings at 10p" ~paper:"4.3K" ~gt:4_000 ~lt:4_700
      (fun r -> (at 10 r).ra_sr);
  ]

let print r =
  let table =
    Table.create ~title:"Fig 17: capacity per replication-tree design (all senders)"
      ~columns:[ "N"; "NRA"; "RA-R"; "RA-SR"; "S-LM mem"; "S-LR mem"; "32-core server" ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [
          Table.cell_i p.participants;
          Table.cell_i p.nra;
          Table.cell_i p.ra_r;
          Table.cell_i p.ra_sr;
          Table.cell_i p.tracker_slm;
          Table.cell_i p.tracker_slr;
          Table.cell_i p.software;
        ])
    r.points;
  Table.print table;
  Printf.printf "two-party fast path: %d meetings\n" r.two_party
