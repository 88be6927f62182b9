module Table = Scallop_util.Table
module Cap = Scallop.Capacity

type point = {
  participants : int;
  scallop_low : int;
  scallop_high : int;
  software_low : int;
  software_high : int;
}

type result = { points : point list; always_ahead : bool }

let compute () =
  let max_n = 30 in
  let points =
    List.init (max_n - 1) (fun i ->
        let n = i + 2 in
        let scallop ~senders =
          if n = 2 then
            Cap.meetings_supported Cap.Two_party ~participants:n ~senders ()
          else
            (* worst case assumes sender-specific adaptation with the
               heavier rewrite variant; best case no adaptation at all *)
            max 1 (Cap.meetings_supported ~rewrite:Scallop.Seq_rewrite.S_LM Cap.Nra ~participants:n ~senders ())
        in
        let scallop_low =
          if n = 2 then Cap.meetings_supported Cap.Two_party ~participants:2 ~senders:2 ()
          else
            Cap.meetings_supported ~rewrite:Scallop.Seq_rewrite.S_LR Cap.Ra_sr
              ~participants:n ~senders:n ()
        in
        {
          participants = n;
          scallop_low;
          scallop_high = scallop ~senders:1;
          software_low = Sfu.Capacity.meetings_supported ~participants:n ~senders:n ~media_types:2 ();
          software_high = Sfu.Capacity.meetings_supported ~participants:n ~senders:1 ~media_types:2 ();
        })
  in
  let always_ahead =
    List.for_all
      (fun p -> p.scallop_low > p.software_high && p.scallop_high > p.software_high)
      points
  in
  { points; always_ahead }

let claims =
  [
    Claim.holds "Fig 16" "Scallop ahead at every N" ~paper:"ahead at every configuration"
      (fun r -> r.always_ahead);
  ]

let print r =
  let table =
    Table.create ~title:"Fig 16: meetings supported (low = all send, high = one sender)"
      ~columns:[ "participants"; "Scallop low"; "Scallop high"; "server low"; "server high" ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [
          Table.cell_i p.participants;
          Table.cell_i p.scallop_low;
          Table.cell_i p.scallop_high;
          Table.cell_i p.software_low;
          Table.cell_i p.software_high;
        ])
    r.points;
  Table.print table
