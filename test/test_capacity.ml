(* Capacity-model invariants: the closed forms behind Figs. 15-17 must be
   internally consistent for every meeting shape. *)

module Cap = Scallop.Capacity
module Sr = Scallop.Seq_rewrite

let anchors () =
  Alcotest.(check int) "NRA 128K" 131_072
    (Cap.meetings_supported Cap.Nra ~participants:3 ~senders:3 ());
  Alcotest.(check int) "RA-R 42.7K" 43_690
    (Cap.meetings_supported Cap.Ra_r ~participants:3 ~senders:3 ());
  Alcotest.(check int) "RA-SR 10p 4.3K" 4_369
    (Cap.meetings_supported Cap.Ra_sr ~participants:10 ~senders:10 ());
  Alcotest.(check int) "two-party 533K" 524_288
    (Cap.meetings_supported Cap.Two_party ~participants:2 ~senders:2 ())

let design_ordering () =
  (* more adaptation flexibility costs capacity: NRA >= RA-R >= RA-SR *)
  for n = 3 to 30 do
    let m d = Cap.meetings_supported d ~participants:n ~senders:n () in
    if not (m Cap.Nra >= m Cap.Ra_r && m Cap.Ra_r >= m Cap.Ra_sr) then
      Alcotest.failf "ordering violated at N=%d" n
  done

let monotone_in_participants () =
  List.iter
    (fun d ->
      let prev = ref max_int in
      for n = 3 to 30 do
        let m = Cap.meetings_supported d ~participants:n ~senders:n () in
        if m > !prev then Alcotest.failf "capacity grew with N at %d" n;
        prev := m
      done)
    [ Cap.Nra; Cap.Ra_r; Cap.Ra_sr ]

let rewrite_variant_effect () =
  (* S-LM's smaller footprint can only help, never hurt *)
  for n = 3 to 30 do
    let m v = Cap.meetings_supported ~rewrite:v Cap.Ra_sr ~participants:n ~senders:n () in
    if m Sr.S_LM < m Sr.S_LR then Alcotest.failf "S-LM worse at N=%d" n
  done

let gains_always_positive () =
  for n = 3 to 30 do
    List.iter
      (fun d ->
        let g = Cap.gain_over_software d ~participants:n ~senders:n () in
        if g <= 1.0 then Alcotest.failf "no gain at N=%d" n)
      [ Cap.Nra; Cap.Ra_r; Cap.Ra_sr ]
  done

let bottleneck_names_sane () =
  let name, v = Cap.bottleneck Cap.Nra ~participants:3 ~senders:3 () in
  Alcotest.(check string) "tree-bound at small N" "PRE trees" name;
  Alcotest.(check int) "value matches" 131_072 v;
  let name10, _ = Cap.bottleneck Cap.Nra ~participants:12 ~senders:12 () in
  Alcotest.(check string) "bandwidth-bound at larger N" "switch bandwidth" name10

let fewer_senders_more_meetings () =
  for n = 4 to 20 do
    let all = Cap.meetings_supported Cap.Nra ~participants:n ~senders:n () in
    let one = Cap.meetings_supported Cap.Nra ~participants:n ~senders:1 () in
    if one < all then Alcotest.failf "one sender worse at N=%d" n
  done

let invalid_shapes_rejected () =
  Alcotest.(check bool) "senders > participants" true
    (try
       ignore (Cap.meetings_supported Cap.Nra ~participants:3 ~senders:4 ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "one participant" true
    (try
       ignore (Cap.meetings_supported Cap.Nra ~participants:1 ~senders:1 ());
       false
     with Invalid_argument _ -> true)

let best_design_picks_feasible () =
  let d, v = Cap.best_design ~rate_adapted:false ~sender_specific:false ~participants:5 ~senders:5 () in
  Alcotest.(check bool) "nra for non-adapted" true (d = Cap.Nra);
  Alcotest.(check int) "capacity" (Cap.meetings_supported Cap.Nra ~participants:5 ~senders:5 ()) v;
  let d2, _ = Cap.best_design ~rate_adapted:true ~sender_specific:true ~participants:5 ~senders:5 () in
  Alcotest.(check bool) "ra-sr when sender-specific" true (d2 = Cap.Ra_sr);
  let d3, _ = Cap.best_design ~rate_adapted:true ~sender_specific:false ~participants:2 ~senders:2 () in
  Alcotest.(check bool) "two-party overrides" true (d3 = Cap.Two_party)

let prop_capacity_positive =
  QCheck.Test.make ~count:300 ~name:"capacity positive for any shape"
    QCheck.(pair (int_range 2 60) (int_range 1 60))
    (fun (n, s) ->
      let s = min s n in
      List.for_all
        (fun d -> Cap.meetings_supported d ~participants:n ~senders:s () > 0)
        (if n = 2 then [ Cap.Two_party; Cap.Nra; Cap.Ra_r; Cap.Ra_sr ]
         else [ Cap.Nra; Cap.Ra_r; Cap.Ra_sr ]))

let qsuite = List.map Fixed_seed.to_alcotest [ prop_capacity_positive ]

let () =
  Alcotest.run "capacity"
    [
      ( "model",
        [
          Alcotest.test_case "paper anchors" `Quick anchors;
          Alcotest.test_case "design ordering" `Quick design_ordering;
          Alcotest.test_case "monotone in participants" `Quick monotone_in_participants;
          Alcotest.test_case "rewrite variant effect" `Quick rewrite_variant_effect;
          Alcotest.test_case "gains positive" `Quick gains_always_positive;
          Alcotest.test_case "bottleneck names" `Quick bottleneck_names_sane;
          Alcotest.test_case "fewer senders helps" `Quick fewer_senders_more_meetings;
          Alcotest.test_case "invalid shapes" `Quick invalid_shapes_rejected;
          Alcotest.test_case "best design" `Quick best_design_picks_feasible;
        ] );
      ("properties", qsuite);
    ]
