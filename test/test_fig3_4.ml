(* Fig. 3-4's software-SFU collapse at 100 participants. It is the
   slowest experiment assertion, so it has its own executable: dune then
   runs it beside test_experiments instead of after the rest of it. *)

let fig3_4_collapse () =
  let r = Experiments.Fig3_4.compute ~quick:true () in
  let series = r.Experiments.Fig3_4.series in
  let early = List.hd (List.filter (fun s -> s.Experiments.Fig3_4.participants = 30) series) in
  let late = List.hd (List.filter (fun s -> s.Experiments.Fig3_4.participants = 100) series) in
  Alcotest.(check bool) "healthy early" true (early.Experiments.Fig3_4.mean_fps > 25.0);
  Alcotest.(check bool) "collapsed late" true (late.Experiments.Fig3_4.mean_fps < 15.0);
  Alcotest.(check bool) "jitter grows" true
    (late.Experiments.Fig3_4.jitter_p95_ms > early.Experiments.Fig3_4.jitter_p95_ms)

let () =
  Alcotest.run "fig3_4"
    [ ("simulated", [ Alcotest.test_case "fig3_4 collapse" `Slow fig3_4_collapse ]) ]
