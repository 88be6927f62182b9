module Table = Scallop_util.Table
module Engine = Netsim.Engine
module Dd = Av1.Dd

type slice = {
  t_s : float;
  to_a_kbps : float;
  to_b_kbps : float;
  a_by_template : float array;
}

type result = {
  series : slice list;
  a_enhancement_share_before : float;
  a_enhancement_share_after : float;
}

let compute ?(quick = false) () =
  let phase = if quick then 10.0 else 30.0 in
  let stack = Common.make_scallop ~seed:77 () in
  let _mid, members = Common.scallop_meeting stack ~participants:3 ~senders:1 () in
  let pids = List.map fst members in
  let sender = List.nth pids 0 and recv_a = List.nth pids 1 and recv_b = List.nth pids 2 in
  (* per-receiver, per-template byte accounting from the egress pipeline *)
  let horizon = int_of_float (3.0 *. phase) in
  let to_a = Array.make horizon 0.0 in
  let to_b = Array.make horizon 0.0 in
  let a_tpl = Array.make_matrix horizon 5 0.0 in
  Scallop.Dataplane.set_egress_hook stack.dp (fun ~receiver ~ssrc:_ ~template ~size ->
      let sec = Engine.now stack.engine / 1_000_000_000 in
      if sec < horizon then begin
        let kbits = float_of_int (size * 8) /. 1000.0 in
        if receiver = recv_a then begin
          to_a.(sec) <- to_a.(sec) +. kbits;
          if template >= 0 && template < 5 then
            a_tpl.(sec).(template) <- a_tpl.(sec).(template) +. kbits
        end
        else if receiver = recv_b then to_b.(sec) <- to_b.(sec) +. kbits
      end);
  ignore sender;
  Common.run_for stack.engine ~seconds:phase;
  (* receiver A's downlink deteriorates first, receiver B's later — the
     Zoom-trace scenario of Fig. 23 *)
  Netsim.Link.set_rate (Netsim.Network.downlink stack.network ~ip:(Common.client_ip 1)) 2.0e6;
  Common.run_for stack.engine ~seconds:phase;
  Netsim.Link.set_rate (Netsim.Network.downlink stack.network ~ip:(Common.client_ip 2)) 1.2e6;
  Common.run_for stack.engine ~seconds:phase;
  let series =
    List.init horizon (fun s ->
        {
          t_s = float_of_int s;
          to_a_kbps = to_a.(s);
          to_b_kbps = to_b.(s);
          a_by_template = a_tpl.(s);
        })
  in
  let enhancement_share lo hi =
    let enh = ref 0.0 and total = ref 0.0 in
    for s = lo to hi - 1 do
      for id = 0 to 4 do
        total := !total +. a_tpl.(s).(id);
        if id >= 3 then enh := !enh +. a_tpl.(s).(id)
      done
    done;
    if !total = 0.0 then 0.0 else !enh /. !total
  in
  let p = int_of_float phase in
  {
    series;
    a_enhancement_share_before = enhancement_share (p - 6) p;
    a_enhancement_share_after = enhancement_share ((2 * p) - 6) (2 * p);
  }

let claims =
  [
    Claim.float "Fig 24" "A's T2-template byte share % before" ~paper:"enhancement layers sent"
      ~decimals:1 ~gt:20.0 (fun r -> 100.0 *. r.a_enhancement_share_before);
    Claim.float "Fig 24" "A's T2-template byte share % after" ~paper:"vanish when reduced"
      ~decimals:1 ~lt:2.0 (fun r -> 100.0 *. r.a_enhancement_share_after);
  ]

let print r =
  let table =
    Table.create
      ~title:"Fig 23-24: forwarded kb/s per receiver and per SVC template (receiver A)"
      ~columns:[ "t (s)"; "to A"; "to B"; "A tpl0"; "A tpl1"; "A tpl2"; "A tpl3"; "A tpl4" ]
  in
  List.iter
    (fun s ->
      if int_of_float s.t_s mod 3 = 1 then
        Table.add_row table
          ([ Table.cell_f ~decimals:0 s.t_s; Table.cell_f ~decimals:0 s.to_a_kbps;
             Table.cell_f ~decimals:0 s.to_b_kbps ]
          @ (Array.to_list s.a_by_template |> List.map (Table.cell_f ~decimals:0))))
    r.series;
  Table.print table;
  (* Fig 25: frame-survival schematic for a 16-frame window *)
  let schematic =
    Table.create ~title:"Fig 25: frames forwarded per decode target (16-frame window)"
      ~columns:[ "target"; "frames kept (x = forwarded)" ]
  in
  List.iter
    (fun dt ->
      let marks =
        String.concat ""
          (List.init 16 (fun f ->
               if Scallop.Seq_rewrite.suppressed_by_cadence dt f then "." else "x"))
      in
      Table.add_row schematic [ Printf.sprintf "%.1f fps" (Dd.fps_of_target dt); marks ])
    [ Dd.DT_30fps; Dd.DT_15fps; Dd.DT_7_5fps ];
  Table.print schematic
