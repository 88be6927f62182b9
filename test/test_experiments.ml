(* End-to-end experiment assertions: each reproduction must exhibit the
   paper's qualitative result (in quick mode, to keep the suite fast; the
   bench binary runs the full-scale versions). *)

module Dd = Av1.Dd

let table1_split () =
  let r = Experiments.Table1.compute ~quick:true () in
  Alcotest.(check bool) "packets mostly data plane (paper 96.46%)" true
    (r.Experiments.Table1.data_plane_packet_fraction > 0.94);
  Alcotest.(check bool) "bytes almost entirely data plane (paper 99.65%)" true
    (r.Experiments.Table1.data_plane_byte_fraction > 0.99)

let fig14_staircase () =
  let r = Experiments.Fig14.compute ~quick:true () in
  Alcotest.(check int) "no freezes" 0 r.Experiments.Fig14.freezes;
  Alcotest.(check bool) "starts at full rate" true (r.Experiments.Fig14.initial_fps > 25.0);
  Alcotest.(check bool) "first step down" true
    (r.Experiments.Fig14.mid_fps < 22.0 && r.Experiments.Fig14.mid_fps > 10.0);
  Alcotest.(check bool) "second step down" true (r.Experiments.Fig14.late_fps < 11.0);
  Alcotest.(check bool) "ends at base layer" true
    (r.Experiments.Fig14.final_target = Dd.DT_7_5fps)

let fig15_gain_range () =
  let r = Experiments.Fig15.compute () in
  Alcotest.(check bool) "min gain near 7x" true
    (r.Experiments.Fig15.min_gain > 5.0 && r.Experiments.Fig15.min_gain < 10.0);
  Alcotest.(check bool) "max gain near 210x" true
    (r.Experiments.Fig15.max_gain > 180.0 && r.Experiments.Fig15.max_gain < 240.0);
  Alcotest.(check bool) "two-party spike" true (r.Experiments.Fig15.two_party_gain > 80.0)

let fig16_always_ahead () =
  let r = Experiments.Fig16.compute () in
  Alcotest.(check bool) "Scallop ahead everywhere" true r.Experiments.Fig16.always_ahead

let fig17_anchors () =
  let r = Experiments.Fig17.compute () in
  Alcotest.(check bool) "two-party ~533K" true
    (r.Experiments.Fig17.two_party > 500_000 && r.Experiments.Fig17.two_party < 560_000);
  let p3 = List.hd r.Experiments.Fig17.points in
  Alcotest.(check bool) "NRA ~128K" true (p3.Experiments.Fig17.nra > 120_000);
  Alcotest.(check bool) "RA-R ~42.7K" true
    (p3.Experiments.Fig17.ra_r > 40_000 && p3.Experiments.Fig17.ra_r < 46_000);
  match List.find_opt (fun p -> p.Experiments.Fig17.participants = 10) r.Experiments.Fig17.points with
  | Some p10 ->
      Alcotest.(check bool) "RA-SR(10p) ~4.3K" true
        (p10.Experiments.Fig17.ra_sr > 4_000 && p10.Experiments.Fig17.ra_sr < 4_700)
  | None -> Alcotest.fail "missing N=10"

let fig18_overhead_shape () =
  let r = Experiments.Fig18.compute ~quick:true () in
  let at loss =
    List.find (fun p -> Float.abs (p.Experiments.Fig18.loss -. loss) < 1e-9) r.Experiments.Fig18.points
  in
  List.iter
    (fun p -> Alcotest.(check int) "never duplicates" 0 p.Experiments.Fig18.duplicates)
    r.Experiments.Fig18.points;
  Alcotest.(check bool) "<5% at 10% loss (paper)" true ((at 0.1).Experiments.Fig18.overhead_slr < 0.05);
  Alcotest.(check bool) "<10% at 20% loss (paper ~7.5%)" true
    ((at 0.2).Experiments.Fig18.overhead_slr < 0.10);
  Alcotest.(check bool) "<20% at 40% loss (paper)" true ((at 0.4).Experiments.Fig18.overhead_slr < 0.20);
  Alcotest.(check bool) "bounded under bursty loss too" true
    ((at 0.2).Experiments.Fig18.overhead_slr_bursty < 0.20);
  (* S-LM trades memory for overhead: it must be the worse of the two *)
  Alcotest.(check bool) "S-LM above S-LR under loss" true
    ((at 0.2).Experiments.Fig18.overhead_slm > (at 0.2).Experiments.Fig18.overhead_slr)

let fig19_latency_ratios () =
  let r = Experiments.Fig19.compute ~quick:true () in
  Alcotest.(check bool) "median ratio double digit (paper 26.8x)" true
    (r.Experiments.Fig19.median_ratio > 10.0);
  Alcotest.(check bool) "p99 ratio (paper 8.5x)" true (r.Experiments.Fig19.p99_ratio > 4.0)

let fig2_streams () =
  let r = Experiments.Fig2.compute ~quick:true () in
  Alcotest.(check bool) "~200 at 10 participants" true
    (r.Experiments.Fig2.streams_at_10 > 120 && r.Experiments.Fig2.streams_at_10 <= 260);
  Alcotest.(check bool) "700+ at 25" true (r.Experiments.Fig2.streams_at_25 > 700)

let fig22_reduction () =
  let r = Experiments.Fig22.compute ~quick:true () in
  Alcotest.(check bool) "two orders of magnitude (paper ~284x)" true
    (r.Experiments.Fig22.reduction > 200.0)

let table3_fits () =
  let r = Experiments.Table3.compute ~quick:true () in
  Alcotest.(check bool) "stages fit" true r.Experiments.Table3.stages_fit;
  Alcotest.(check bool) "max egress ~197 Gb/s" true
    (Float.abs (r.Experiments.Table3.egress_max_gbps -. 197.0) < 2.0)

let fig23_enhancement_vanishes () =
  let r = Experiments.Fig23_25.compute ~quick:true () in
  Alcotest.(check bool) "T2 present before" true
    (r.Experiments.Fig23_25.a_enhancement_share_before > 0.2);
  Alcotest.(check bool) "T2 gone after" true
    (r.Experiments.Fig23_25.a_enhancement_share_after < 0.02)

let ablation_filter () =
  let r = Experiments.Ablations.filter_ablation ~quick:true () in
  Alcotest.(check bool) "filter preserves the sender's rate" true
    (r.Experiments.Ablations.sender_bitrate_filtered > 2_000_000);
  Alcotest.(check bool) "naive forwarding drags the sender down" true
    (float_of_int r.Experiments.Ablations.sender_bitrate_naive
    < 0.7 *. float_of_int r.Experiments.Ablations.sender_bitrate_filtered)

let ablation_rewrite () =
  let r = Experiments.Ablations.rewrite_ablation ~quick:true () in
  Alcotest.(check bool) "rewriting masks nearly all gaps" true
    (r.Experiments.Ablations.nacks_with_rewrite < 100);
  Alcotest.(check bool) "raw gaps NACK storm" true
    (r.Experiments.Ablations.nacks_without_rewrite
    > 20 * (r.Experiments.Ablations.nacks_with_rewrite + 1));
  Alcotest.(check bool) "both still decode at the adapted rate" true
    (Float.abs
       (r.Experiments.Ablations.fps_with_rewrite
       -. r.Experiments.Ablations.fps_without_rewrite)
    < 3.0)

let feedback_modes_load () =
  let r = Experiments.Feedback_modes.compute ~quick:true () in
  (* the paper's argument: TWCC floods the switch CPU relative to REMB *)
  Alcotest.(check bool) "TWCC at least 5x the agent load" true
    (r.Experiments.Feedback_modes.load_ratio > 5.0);
  Alcotest.(check bool) "REMB stays light" true
    (r.Experiments.Feedback_modes.remb_cpu_pps < 60.0)

let simulcast_splices () =
  let r = Experiments.Simulcast_exp.compute ~quick:true () in
  Alcotest.(check int) "no freezes" 0 r.Experiments.Simulcast_exp.freezes;
  Alcotest.(check bool) "full fps on both" true
    (r.Experiments.Simulcast_exp.fast_fps > 27.0 && r.Experiments.Simulcast_exp.slow_fps > 27.0);
  Alcotest.(check bool) "cheaper rendition for the slow receiver" true
    (r.Experiments.Simulcast_exp.slow_kbps < 0.6 *. r.Experiments.Simulcast_exp.fast_kbps)

let table2_structure () =
  let r = Experiments.Table2.compute ~quick:true () in
  (* 2+3 participants all sending video+audio = 10 media SSRCs *)
  Alcotest.(check int) "rtp streams" 10 r.Experiments.Table2.rtp_streams;
  Alcotest.(check bool) "flows both ways" true (r.Experiments.Table2.flows > 10);
  Alcotest.(check bool) "media-dominated byte rate" true (r.Experiments.Table2.mbit_per_s > 5.0)

let replay_headline () =
  let r = Experiments.Replay.compute ~quick:true () in
  Alcotest.(check bool) "packets mostly data plane (paper 96.5%)" true
    (r.Experiments.Replay.data_plane_packet_fraction > 0.955);
  Alcotest.(check bool) "bytes almost entirely data plane (paper 99.7%)" true
    (r.Experiments.Replay.data_plane_byte_fraction > 0.995);
  Alcotest.(check bool) "real churn exercised" true
    (r.Experiments.Replay.joins > 20 && r.Experiments.Replay.leaves > 5
    && r.Experiments.Replay.migrations > 5);
  Alcotest.(check int) "no freezes under churn" 0 r.Experiments.Replay.freezes

(* The control-plane batching gate: the campus churn replayed at full
   scale over a 30%-loss, 20 ms RTT control channel must run at least 5x
   faster batched than per-op. Virtual time, so the ratio is exact for
   the fixed seed. *)
let ctrl_churn_gate () =
  let r = Experiments.Ctrl_churn.compute () in
  Alcotest.(check bool)
    (Printf.sprintf "batched >= 5x per-op (got %.3fx)" r.Experiments.Ctrl_churn.speedup)
    true
    (r.Experiments.Ctrl_churn.speedup >= 5.0)

let registry_complete () =
  (* every artefact of the paper's evaluation is registered *)
  let ids = List.map (fun e -> e.Experiments.Registry.id) Experiments.Registry.all in
  List.iter
    (fun id -> Alcotest.(check bool) (id ^ " present") true (List.mem id ids))
    [ "fig2"; "fig3_4"; "tab1"; "fig14"; "fig15"; "fig16"; "fig17"; "fig18"; "fig19";
      "tab2"; "tab3"; "fig20_21"; "fig22"; "fig23_25"; "ablations"; "feedback_modes"; "simulcast"; "replay" ];
  Alcotest.(check bool) "find works" true (Experiments.Registry.find "fig18" <> None);
  Alcotest.(check bool) "unknown id" true (Experiments.Registry.find "fig99" = None)

let () =
  Alcotest.run "experiments"
    [
      ( "fast",
        [
          Alcotest.test_case "registry complete" `Quick registry_complete;
          Alcotest.test_case "fig15 gain range" `Quick fig15_gain_range;
          Alcotest.test_case "fig16 always ahead" `Quick fig16_always_ahead;
          Alcotest.test_case "fig17 anchors" `Quick fig17_anchors;
          Alcotest.test_case "fig18 overhead shape" `Quick fig18_overhead_shape;
          Alcotest.test_case "fig2 streams" `Quick fig2_streams;
          Alcotest.test_case "fig22 reduction" `Quick fig22_reduction;
          Alcotest.test_case "table3 fits" `Quick table3_fits;
        ] );
      ( "simulated",
        [
          Alcotest.test_case "table1 split" `Quick table1_split;
          Alcotest.test_case "replay headline" `Quick replay_headline;
          Alcotest.test_case "ctrl churn batching gate" `Quick ctrl_churn_gate;
          Alcotest.test_case "fig14 staircase" `Quick fig14_staircase;
          Alcotest.test_case "fig19 latency ratios" `Quick fig19_latency_ratios;
          Alcotest.test_case "fig23 enhancement vanishes" `Quick fig23_enhancement_vanishes;
          Alcotest.test_case "ablation: feedback filter" `Quick ablation_filter;
          Alcotest.test_case "ablation: sequence rewriting" `Quick ablation_rewrite;
          Alcotest.test_case "feedback modes load" `Quick feedback_modes_load;
          Alcotest.test_case "table2 structure" `Quick table2_structure;
          Alcotest.test_case "simulcast splices" `Quick simulcast_splices;
        ] );
    ]
