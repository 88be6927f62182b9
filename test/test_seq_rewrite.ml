(* Sequence-rewriting heuristic tests (paper §6.2, Fig. 12): masking of
   intentional gaps, loss/reorder handling, and the never-duplicate
   invariant the paper calls out as non-negotiable. *)

module Sr = Scallop.Seq_rewrite
module Dd = Av1.Dd

let fwd s = if s < 0 then Alcotest.fail "unexpected drop" else s
let is_drop s = s < 0

(* A generated L1T3 stream: (seq, frame, sof, eof) with [ppf] packets per
   frame. Frame numbers align with the cycle (pos = frame mod 4). *)
let stream ~frames ~ppf =
  List.concat_map
    (fun f -> List.init ppf (fun i -> ((f * ppf) + i, f, i = 0, i = ppf - 1)))
    (List.init frames Fun.id)

let push rw (seq, frame, sof, eof) =
  Sr.on_packet rw ~seq ~frame ~start_of_frame:sof ~end_of_frame:eof

let cadence () =
  Alcotest.(check bool) "30 fps keeps all" true
    (List.for_all (fun f -> not (Sr.suppressed_by_cadence Dd.DT_30fps f)) [ 0; 1; 2; 3 ]);
  Alcotest.(check (list bool)) "15 fps drops T2 positions" [ false; true; false; true ]
    (List.map (Sr.suppressed_by_cadence Dd.DT_15fps) [ 0; 1; 2; 3 ]);
  Alcotest.(check (list bool)) "7.5 fps keeps only T0" [ false; true; true; true ]
    (List.map (Sr.suppressed_by_cadence Dd.DT_7_5fps) [ 0; 1; 2; 3 ])

let words_per_stream () =
  Alcotest.(check int) "S-LM" 3 (Sr.words_per_stream Sr.S_LM);
  Alcotest.(check int) "S-LR" 6 (Sr.words_per_stream Sr.S_LR)

(* With full quality nothing is suppressed: output = input. *)
let passthrough variant () =
  let rw = Sr.create variant ~target:Dd.DT_30fps in
  List.iter (fun p -> let (s, _, _, _) = p in Alcotest.(check int) "identity" s (fwd (push rw p)))
    (stream ~frames:12 ~ppf:3)

(* 15 fps: suppressed T2 frames produce gaps the rewriter must mask, so the
   receiver-visible sequence numbers are consecutive. *)
let masks_suppression variant () =
  let rw = Sr.create variant ~target:Dd.DT_15fps in
  let outs =
    List.filter_map
      (fun ((_, f, _, _) as p) ->
        if Sr.suppressed_by_cadence Dd.DT_15fps f then None else Some (fwd (push rw p)))
      (stream ~frames:20 ~ppf:3)
  in
  let rec consecutive = function
    | a :: (b :: _ as rest) -> b = a + 1 && consecutive rest
    | _ -> true
  in
  Alcotest.(check bool) "output consecutive" true (consecutive outs)

(* Genuine loss inside a kept frame must stay visible (NACKable). *)
let loss_leaves_gap variant () =
  let rw = Sr.create variant ~target:Dd.DT_15fps in
  let packets =
    stream ~frames:8 ~ppf:3
    |> List.filter (fun (_, f, _, _) -> not (Sr.suppressed_by_cadence Dd.DT_15fps f))
  in
  (* drop the middle packet of the 3rd kept frame *)
  let dropped = 7 in
  let outs =
    List.filteri (fun i _ -> i <> dropped) packets |> List.map (fun p -> fwd (push rw p))
  in
  let rec max_gap acc = function
    | a :: (b :: _ as rest) -> max_gap (max acc (b - a)) rest
    | _ -> acc
  in
  Alcotest.(check int) "one-seq hole survives" 2 (max_gap 0 outs)

let slm_tolerates_one_step_reorder () =
  let rw = Sr.create Sr.S_LM ~target:Dd.DT_30fps in
  ignore (fwd (push rw (0, 0, true, false)));
  ignore (fwd (push rw (2, 0, false, true)));
  Alcotest.(check int) "late by one forwarded" 1 (fwd (push rw (1, 0, false, false)))

let slm_drops_deeper_reorder () =
  (* once an offset is active, anything older than one step is unsafe *)
  let rw = Sr.create Sr.S_LM ~target:Dd.DT_15fps in
  ignore (push rw (0, 0, true, true));
  ignore (push rw (3, 2, true, true));
  (* offset = 2 (frame 1 suppressed); a deep-reordered resend of seq 0 *)
  Alcotest.(check bool) "dropped" true (is_drop (push rw (0, 0, true, true)))

let identity_passthrough_when_no_offset () =
  (* with no rewriting done yet the mapping is the identity, so even deep
     reordering (retransmissions) can pass through safely *)
  let rw = Sr.create Sr.S_LM ~target:Dd.DT_30fps in
  List.iter (fun p -> ignore (push rw p)) (stream ~frames:2 ~ppf:4);
  Alcotest.(check int) "old packet forwarded verbatim" 4 (fwd (push rw (4, 1, true, false)))

let slr_tolerates_in_frame_reorder () =
  let rw = Sr.create Sr.S_LR ~target:Dd.DT_30fps in
  ignore (push rw (0, 0, true, false));
  ignore (push rw (1, 0, false, false));
  ignore (push rw (4, 0, false, true));
  (* seqs 2 and 3 of the same frame arrive late and out of order *)
  Alcotest.(check int) "late in-frame ok" 3 (fwd (push rw (3, 0, false, false)));
  Alcotest.(check int) "more reorder ok" 2 (fwd (push rw (2, 0, false, false)))

let slr_drops_suppressed_straggler () =
  let rw = Sr.create Sr.S_LR ~target:Dd.DT_15fps in
  (* frames 0 (kept) then 2 (kept); a straggler of suppressed frame 1 *)
  ignore (push rw (0, 0, true, true));
  ignore (push rw (4, 2, true, true));
  Alcotest.(check bool) "straggler silenced" true (is_drop (push rw (2, 1, true, false)))

let duplicate_guard_after_mask () =
  (* S-LM masks a gap believed intentional; the "suppressed" packets then
     show up late (they were actually lost + retransmitted). Forwarding
     them with the advanced offset would duplicate sequence numbers. *)
  let rw = Sr.create Sr.S_LM ~target:Dd.DT_15fps in
  let out0 = fwd (push rw (0, 0, true, true)) in
  (* frame 1 is T2/suppressed: seqs 1,2 never arrive; frame 2 opens at 3 *)
  let out3 = fwd (push rw (3, 2, true, true)) in
  Alcotest.(check int) "gap masked" (out0 + 1) out3;
  (* now seq 2 arrives late: exactly one behind, but inside the masked
     region - must be dropped, not emitted as a duplicate *)
  Alcotest.(check bool) "masked straggler dropped" true (is_drop (push rw (2, 1, false, true)))

let offset_reported () =
  let rw = Sr.create Sr.S_LM ~target:Dd.DT_15fps in
  ignore (push rw (0, 0, true, true));
  ignore (push rw (5, 2, true, true));
  Alcotest.(check int) "offset = masked gap" 4 (Sr.offset rw)

(* --- Oracle --------------------------------------------------------------------- *)

let oracle_exact () =
  let o = Sr.Oracle.create () in
  Sr.Oracle.note_suppressed o 3;
  Sr.Oracle.note_suppressed o 4;
  Sr.Oracle.note_suppressed o 10;
  Alcotest.(check int) "before gaps" 2 (Sr.Oracle.on_packet o ~seq:2);
  Alcotest.(check int) "after first gap" 3 (Sr.Oracle.on_packet o ~seq:5);
  Alcotest.(check int) "after second gap" 8 (Sr.Oracle.on_packet o ~seq:11)

let oracle_out_of_order_queries () =
  let o = Sr.Oracle.create () in
  List.iter (Sr.Oracle.note_suppressed o) [ 1; 5; 9 ];
  Alcotest.(check int) "late query" 4 (Sr.Oracle.on_packet o ~seq:6);
  Alcotest.(check int) "earlier query" 2 (Sr.Oracle.on_packet o ~seq:3)

(* --- the invariant, property-tested over adversarial arrival orders --------------- *)

let arrival_gen =
  (* loss and reorder patterns over a 240-packet stream *)
  QCheck.(triple (int_bound 1000) (float_bound_inclusive 0.3) (float_bound_inclusive 0.2))

let run_invariant variant (seed, loss, reorder) =
  let rng = Scallop_util.Rng.create seed in
  let packets = stream ~frames:60 ~ppf:4 in
  let survivors =
    List.filter (fun _ -> not (Scallop_util.Rng.bernoulli rng loss)) packets
  in
  let keyed =
    List.mapi
      (fun i p ->
        let d = if Scallop_util.Rng.bernoulli rng reorder then 1 + Scallop_util.Rng.int rng 5 else 0 in
        (i + d, i, p))
      survivors
  in
  let arrivals = List.sort compare keyed |> List.map (fun (_, _, p) -> p) in
  let rw = Sr.create variant ~target:Dd.DT_15fps in
  let seen = Hashtbl.create 256 in
  List.for_all
    (fun ((seq, frame, _, _) as p) ->
      if Sr.suppressed_by_cadence Dd.DT_15fps frame then true
      else
        let out = push rw p in
        if is_drop out then true
        else if Hashtbl.mem seen out && Hashtbl.find seen out <> seq then false
        else begin
          Hashtbl.replace seen out seq;
          true
        end)
    arrivals

let prop_no_duplicates_slm =
  QCheck.Test.make ~count:300 ~name:"S-LM never emits duplicate sequence numbers"
    arrival_gen (run_invariant Sr.S_LM)

let prop_no_duplicates_slr =
  QCheck.Test.make ~count:300 ~name:"S-LR never emits duplicate sequence numbers"
    arrival_gen (run_invariant Sr.S_LR)

let prop_clean_stream_consecutive =
  QCheck.Test.make ~count:50 ~name:"no loss -> consecutive output for any ppf"
    QCheck.(int_range 1 12)
    (fun ppf ->
      let rw = Sr.create Sr.S_LR ~target:Dd.DT_15fps in
      let outs =
        stream ~frames:24 ~ppf
        |> List.filter_map (fun ((_, f, _, _) as p) ->
               if Sr.suppressed_by_cadence Dd.DT_15fps f then None
               else
                 let s = push rw p in
                 if is_drop s then None else Some s)
      in
      let rec consecutive = function
        | a :: (b :: _ as rest) -> b = a + 1 && consecutive rest
        | _ -> true
      in
      consecutive outs)

(* --- simulcast splicing (the sister rewriter) --------------------------- *)

module Sc = Scallop.Simulcast

let sc_fwd = function
  | Sc.Forward { ssrc; seq; frame } -> (ssrc, seq, frame)
  | Sc.Drop -> Alcotest.fail "unexpected drop"

let simulcast_passthrough () =
  let sc = Sc.create ~renditions:[| 100; 200; 300 |] in
  let ssrc1, seq1, _ = sc_fwd (Sc.on_packet sc ~ssrc:100 ~seq:50 ~frame:10 ~keyframe_start:true) in
  Alcotest.(check int) "out ssrc" 100 ssrc1;
  Alcotest.(check int) "seq identity" 50 seq1;
  let _, seq2, _ = sc_fwd (Sc.on_packet sc ~ssrc:100 ~seq:51 ~frame:10 ~keyframe_start:false) in
  Alcotest.(check int) "continuous" 51 seq2

let simulcast_drops_inactive () =
  let sc = Sc.create ~renditions:[| 100; 200 |] in
  ignore (Sc.on_packet sc ~ssrc:100 ~seq:1 ~frame:1 ~keyframe_start:true);
  Alcotest.(check bool) "inactive dropped" true
    (Sc.on_packet sc ~ssrc:200 ~seq:900 ~frame:77 ~keyframe_start:false = Sc.Drop);
  Alcotest.(check bool) "unknown ssrc dropped" true
    (Sc.on_packet sc ~ssrc:999 ~seq:1 ~frame:1 ~keyframe_start:true = Sc.Drop)

let simulcast_switch_waits_for_keyframe () =
  let sc = Sc.create ~renditions:[| 100; 200 |] in
  ignore (Sc.on_packet sc ~ssrc:100 ~seq:10 ~frame:5 ~keyframe_start:true);
  ignore (Sc.on_packet sc ~ssrc:100 ~seq:11 ~frame:6 ~keyframe_start:false);
  Sc.request_switch sc 1;
  Alcotest.(check (option int)) "pending" (Some 1) (Sc.pending sc);
  (* non-keyframe packets of the target keep being dropped *)
  Alcotest.(check bool) "waits" true
    (Sc.on_packet sc ~ssrc:200 ~seq:500 ~frame:40 ~keyframe_start:false = Sc.Drop);
  let _, old_seq, _ = sc_fwd (Sc.on_packet sc ~ssrc:100 ~seq:12 ~frame:6 ~keyframe_start:false) in
  Alcotest.(check int) "old rendition still flows" 12 old_seq;
  (* the key frame triggers the splice, continuing seq and frame spaces *)
  let fssrc, fseq, fframe = sc_fwd (Sc.on_packet sc ~ssrc:200 ~seq:501 ~frame:41 ~keyframe_start:true) in
  Alcotest.(check int) "spliced ssrc" 100 fssrc;
  Alcotest.(check int) "seq continues" 13 fseq;
  Alcotest.(check int) "frame continues" 7 fframe;
  Alcotest.(check int) "now active" 1 (Sc.active sc);
  (* and the old rendition is silenced *)
  Alcotest.(check bool) "old silenced" true
    (Sc.on_packet sc ~ssrc:100 ~seq:13 ~frame:7 ~keyframe_start:false = Sc.Drop)

let simulcast_switch_back_and_forth_no_duplicates () =
  let sc = Sc.create ~renditions:[| 100; 200 |] in
  let seen = Hashtbl.create 64 in
  let note = function
    | Sc.Forward { seq; _ } ->
        if Hashtbl.mem seen seq then Alcotest.failf "duplicate out seq %d" seq;
        Hashtbl.replace seen seq ()
    | Sc.Drop -> ()
  in
  let s0 = ref 0 and s1 = ref 1000 and f0 = ref 0 and f1 = ref 500 in
  for round = 0 to 5 do
    Sc.request_switch sc (round mod 2);
    for i = 0 to 20 do
      incr s0; incr s1;
      if i mod 7 = 0 then begin incr f0; incr f1 end;
      note (Sc.on_packet sc ~ssrc:100 ~seq:!s0 ~frame:!f0 ~keyframe_start:(i mod 7 = 0));
      note (Sc.on_packet sc ~ssrc:200 ~seq:!s1 ~frame:!f1 ~keyframe_start:(i mod 7 = 0))
    done
  done

(* Simulcast invariant under random switch requests and random keyframe
   positions: output never reuses a sequence number, and the out-SSRC is
   constant. *)
let prop_simulcast_no_duplicates =
  QCheck.Test.make ~count:300 ~name:"simulcast splicing never duplicates"
    QCheck.(pair (int_bound 1000) (list_of_size Gen.(0 -- 20) (int_bound 2)))
    (fun (seed, switches) ->
      let rng = Scallop_util.Rng.create seed in
      let sc = Sc.create ~renditions:[| 10; 20; 30 |] in
      let seqs = [| 0; 5000; 20000 |] and frames = [| 0; 200; 400 |] in
      let seen = Hashtbl.create 512 in
      let switches = ref switches in
      let ok = ref true in
      for step = 0 to 400 do
        if step mod 20 = 0 then (
          match !switches with
          | s :: rest ->
              Sc.request_switch sc s;
              switches := rest
          | [] -> ());
        for r = 0 to 2 do
          seqs.(r) <- seqs.(r) + 1;
          let keyframe = Scallop_util.Rng.bernoulli rng 0.1 in
          if keyframe then frames.(r) <- frames.(r) + 1;
          match
            Sc.on_packet sc ~ssrc:((r + 1) * 10) ~seq:(seqs.(r) land 0xFFFF)
              ~frame:(frames.(r) land 0xFFFF) ~keyframe_start:keyframe
          with
          | Sc.Drop -> ()
          | Sc.Forward { ssrc; seq; _ } ->
              if ssrc <> 10 then ok := false;
              if Hashtbl.mem seen seq then ok := false else Hashtbl.replace seen seq ()
        done
      done;
      !ok)

let qsuite =
  List.map Fixed_seed.to_alcotest
    [
      prop_no_duplicates_slm;
      prop_no_duplicates_slr;
      prop_clean_stream_consecutive;
      prop_simulcast_no_duplicates;
    ]

let () =
  Alcotest.run "seq_rewrite"
    [
      ( "basics",
        [
          Alcotest.test_case "cadence" `Quick cadence;
          Alcotest.test_case "words per stream" `Quick words_per_stream;
          Alcotest.test_case "S-LM passthrough" `Quick (passthrough Sr.S_LM);
          Alcotest.test_case "S-LR passthrough" `Quick (passthrough Sr.S_LR);
          Alcotest.test_case "S-LM masks suppression" `Quick (masks_suppression Sr.S_LM);
          Alcotest.test_case "S-LR masks suppression" `Quick (masks_suppression Sr.S_LR);
          Alcotest.test_case "S-LM loss leaves gap" `Quick (loss_leaves_gap Sr.S_LM);
          Alcotest.test_case "S-LR loss leaves gap" `Quick (loss_leaves_gap Sr.S_LR);
          Alcotest.test_case "offset reported" `Quick offset_reported;
        ] );
      ( "reordering",
        [
          Alcotest.test_case "S-LM one-step reorder" `Quick slm_tolerates_one_step_reorder;
          Alcotest.test_case "S-LM deeper reorder dropped" `Quick slm_drops_deeper_reorder;
          Alcotest.test_case "identity passthrough" `Quick identity_passthrough_when_no_offset;
          Alcotest.test_case "S-LR in-frame reorder" `Quick slr_tolerates_in_frame_reorder;
          Alcotest.test_case "S-LR suppressed straggler" `Quick slr_drops_suppressed_straggler;
          Alcotest.test_case "duplicate guard after mask" `Quick duplicate_guard_after_mask;
        ] );
      ( "simulcast",
        [
          Alcotest.test_case "passthrough" `Quick simulcast_passthrough;
          Alcotest.test_case "drops inactive" `Quick simulcast_drops_inactive;
          Alcotest.test_case "switch at keyframe" `Quick simulcast_switch_waits_for_keyframe;
          Alcotest.test_case "no duplicates across switches" `Quick
            simulcast_switch_back_and_forth_no_duplicates;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "exact rewrite" `Quick oracle_exact;
          Alcotest.test_case "out-of-order queries" `Quick oracle_out_of_order_queries;
        ] );
      ("properties", qsuite);
    ]
