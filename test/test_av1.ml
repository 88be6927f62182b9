(* AV1 dependency-descriptor tests: the L1T3 structure of paper Fig. 9. *)

module Dd = Av1.Dd

let template_layer_mapping () =
  (* paper: ids 0,1 = base layer; 2 = first enhancement; 3,4 = second *)
  Alcotest.(check bool) "tpl 0 -> T0" true (Dd.layer_of_template_l1t3 0 = Dd.T0);
  Alcotest.(check bool) "tpl 1 -> T0" true (Dd.layer_of_template_l1t3 1 = Dd.T0);
  Alcotest.(check bool) "tpl 2 -> T1" true (Dd.layer_of_template_l1t3 2 = Dd.T1);
  Alcotest.(check bool) "tpl 3 -> T2" true (Dd.layer_of_template_l1t3 3 = Dd.T2);
  Alcotest.(check bool) "tpl 4 -> T2" true (Dd.layer_of_template_l1t3 4 = Dd.T2)

let template_out_of_range () =
  Alcotest.(check bool) "tpl 9 rejected" true
    (try
       ignore (Dd.layer_of_template_l1t3 9);
       false
     with Rtp.Wire.Parse_error _ -> true)

let decode_target_inclusion () =
  (* 7.5 fps target keeps only T0; 15 keeps T0+T1; 30 keeps everything *)
  Alcotest.(check bool) "T0 in all" true
    (List.for_all
       (fun dt -> Dd.target_includes dt Dd.T0)
       [ Dd.DT_7_5fps; Dd.DT_15fps; Dd.DT_30fps ]);
  Alcotest.(check bool) "T1 not in 7.5" false (Dd.target_includes Dd.DT_7_5fps Dd.T1);
  Alcotest.(check bool) "T1 in 15" true (Dd.target_includes Dd.DT_15fps Dd.T1);
  Alcotest.(check bool) "T2 only in 30" true
    ((not (Dd.target_includes Dd.DT_15fps Dd.T2)) && Dd.target_includes Dd.DT_30fps Dd.T2)

let dropping_templates_halves_rate () =
  (* paper: dropping ids 3 and 4 reduces 30 fps to 15 fps *)
  let kept_at dt = List.filter (fun id -> Dd.template_in_target_l1t3 id dt) [ 0; 1; 2; 3; 4 ] in
  Alcotest.(check (list int)) "30 fps keeps all" [ 0; 1; 2; 3; 4 ] (kept_at Dd.DT_30fps);
  Alcotest.(check (list int)) "15 fps drops 3,4" [ 0; 1; 2 ] (kept_at Dd.DT_15fps);
  Alcotest.(check (list int)) "7.5 fps keeps base" [ 0; 1 ] (kept_at Dd.DT_7_5fps)

let fps_values () =
  Alcotest.(check (float 0.0)) "7.5" 7.5 (Dd.fps_of_target Dd.DT_7_5fps);
  Alcotest.(check (float 0.0)) "15" 15.0 (Dd.fps_of_target Dd.DT_15fps);
  Alcotest.(check (float 0.0)) "30" 30.0 (Dd.fps_of_target Dd.DT_30fps)

let target_index_roundtrip () =
  List.iter
    (fun dt -> Alcotest.(check bool) "index roundtrip" true (Dd.target_of_index (Dd.index_of_target dt) = dt))
    [ Dd.DT_7_5fps; Dd.DT_15fps; Dd.DT_30fps ];
  Alcotest.(check bool) "bad index" true
    (try
       ignore (Dd.target_of_index 3);
       false
     with Invalid_argument _ -> true)

let l1t3_cycle_pattern () =
  (* the 4-frame cycle is T0 T2 T1 T2 *)
  let layers =
    List.init 8 (fun i ->
        Dd.layer_of_template_l1t3 (Dd.l1t3_template ~keyframe:false ~frame_in_cycle:i))
  in
  Alcotest.(check bool) "cycle pattern" true
    (layers = [ Dd.T0; Dd.T2; Dd.T1; Dd.T2; Dd.T0; Dd.T2; Dd.T1; Dd.T2 ])

let keyframe_template () =
  Alcotest.(check int) "keyframe uses template 0" 0 (Dd.l1t3_template ~keyframe:true ~frame_in_cycle:0);
  Alcotest.(check int) "inter T0 uses template 1" 1 (Dd.l1t3_template ~keyframe:false ~frame_in_cycle:0)

let descriptor_roundtrip () =
  let dd =
    {
      Dd.start_of_frame = true;
      end_of_frame = false;
      template_id = 3;
      frame_number = 0xBEEF;
      structure = None;
    }
  in
  Alcotest.(check bool) "plain" true (Dd.equal dd (Dd.parse (Dd.serialize dd)))

let descriptor_with_structure_roundtrip () =
  let dd =
    {
      Dd.start_of_frame = true;
      end_of_frame = true;
      template_id = 0;
      frame_number = 7;
      structure = Some Dd.l1t3_structure;
    }
  in
  Alcotest.(check bool) "with structure" true (Dd.equal dd (Dd.parse (Dd.serialize dd)))

let frame_number_wrap () =
  Alcotest.(check int) "wraps" 0 (Dd.frame_number_succ 0xFFFF)

let prop_descriptor_roundtrip =
  QCheck.Test.make ~count:500 ~name:"descriptor parse . serialize = id"
    QCheck.(quad bool bool (int_bound 63) (int_bound 0xFFFF))
    (fun (start_of_frame, end_of_frame, template_id, frame_number) ->
      let dd = { Dd.start_of_frame; end_of_frame; template_id; frame_number; structure = None } in
      Dd.equal dd (Dd.parse (Dd.serialize dd)))

let prop_target_monotone =
  QCheck.Test.make ~count:100 ~name:"higher targets include more layers"
    QCheck.(pair (int_bound 2) (int_bound 4))
    (fun (dt_idx, tpl) ->
      let dt = Dd.target_of_index dt_idx in
      (* anything a target includes, every higher target includes too *)
      (not (Dd.template_in_target_l1t3 tpl dt))
      || List.for_all
           (fun higher -> Dd.template_in_target_l1t3 tpl (Dd.target_of_index higher))
           (List.filter (fun i -> i >= dt_idx) [ 0; 1; 2 ]))

let qsuite = List.map Fixed_seed.to_alcotest [ prop_descriptor_roundtrip; prop_target_monotone ]

let () =
  Alcotest.run "av1"
    [
      ( "l1t3",
        [
          Alcotest.test_case "template->layer mapping" `Quick template_layer_mapping;
          Alcotest.test_case "out of range" `Quick template_out_of_range;
          Alcotest.test_case "decode target inclusion" `Quick decode_target_inclusion;
          Alcotest.test_case "dropping templates" `Quick dropping_templates_halves_rate;
          Alcotest.test_case "fps values" `Quick fps_values;
          Alcotest.test_case "target index roundtrip" `Quick target_index_roundtrip;
          Alcotest.test_case "cycle pattern" `Quick l1t3_cycle_pattern;
          Alcotest.test_case "keyframe template" `Quick keyframe_template;
        ] );
      ( "descriptor",
        [
          Alcotest.test_case "roundtrip" `Quick descriptor_roundtrip;
          Alcotest.test_case "structure roundtrip" `Quick descriptor_with_structure_roundtrip;
          Alcotest.test_case "frame number wrap" `Quick frame_number_wrap;
        ] );
      ("properties", qsuite);
    ]
