module Table = Scallop_util.Table
module Cap = Scallop.Capacity

type point = { participants : int; gain_low : float; gain_high : float }

type result = {
  two_party_gain : float;
  points : point list;
  min_gain : float;
  max_gain : float;
}

let compute () =
  let max_n = 30 in
  let two_party_gain =
    Cap.gain_over_software Cap.Two_party ~participants:2 ~senders:2 ()
  in
  let points =
    List.init (max_n - 2) (fun i ->
        let n = i + 3 in
        {
          participants = n;
          (* worst configuration: everyone sends, sender-specific
             adaptation, the heavier rewrite variant *)
          gain_low =
            Cap.gain_over_software ~rewrite:Scallop.Seq_rewrite.S_LR Cap.Ra_sr
              ~participants:n ~senders:n ();
          (* best configuration: a single sender, no adaptation needed *)
          gain_high =
            Cap.gain_over_software ~rewrite:Scallop.Seq_rewrite.S_LM Cap.Nra
              ~participants:n ~senders:1 ();
        })
  in
  let gains =
    two_party_gain :: List.concat_map (fun p -> [ p.gain_low; p.gain_high ]) points
  in
  {
    two_party_gain;
    points;
    min_gain = List.fold_left min infinity gains;
    max_gain = List.fold_left max 0.0 gains;
  }

let claims =
  [
    Claim.float "Fig 15" "min gain" ~paper:"7x" ~gt:5.0 ~lt:10.0 (fun r -> r.min_gain);
    Claim.float "Fig 15" "max gain" ~paper:"210x" ~gt:180.0 ~lt:240.0 (fun r -> r.max_gain);
    Claim.float "Fig 15" "two-party gain" ~paper:"spike on the unicast fast path" ~gt:80.0
      (fun r -> r.two_party_gain);
  ]

let print r =
  let table =
    Table.create ~title:"Fig 15: scalability gain over a 32-core server (all senders)"
      ~columns:[ "participants"; "gain (low: RA-SR/S-LR)"; "gain (high: NRA/S-LM)" ]
  in
  Table.add_row table [ "2 (two-party path)"; Table.cell_f r.two_party_gain; Table.cell_f r.two_party_gain ];
  List.iter
    (fun p ->
      Table.add_row table
        [ Table.cell_i p.participants; Table.cell_f p.gain_low; Table.cell_f p.gain_high ])
    r.points;
  Table.print table
