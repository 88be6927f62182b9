type entry = {
  id : string;
  title : string;
  claims : string list;
  run : ?quick:bool -> unit -> bool;
  check : quick:bool -> Claim.row list;
}

(* One experiment: how to compute its result at either scale, how to
   print it, and the claims to evaluate on it. *)
let entry id title compute print claims =
  {
    id;
    title;
    claims = List.map Claim.describe claims;
    run =
      (fun ?(quick = false) () ->
        let r = compute ~quick in
        print r;
        Claim.print (Claim.check claims r));
    check = (fun ~quick -> Claim.check claims (compute ~quick));
  }

let all =
  [
    entry "fig2" "Media streams at the SFU vs meeting size"
      (fun ~quick -> Fig2.compute ~quick ()) Fig2.print Fig2.claims;
    entry "fig3_4" "Software SFU jitter and frame rate under load"
      (fun ~quick -> Fig3_4.compute ~quick ()) Fig3_4.print Fig3_4.claims;
    entry "tab1" "Control/data-plane packet split (3-party meeting)"
      (fun ~quick -> Table1.compute ~quick ()) Table1.print Table1.claims;
    entry "replay" "Campus-trace replay (1 headline claim)"
      (fun ~quick -> Replay.compute ~quick ()) Replay.print Replay.claims;
    entry "tab2" "Packet-capture summary (Appendix C)"
      (fun ~quick -> Table2.compute ~quick ()) Table2.print Table2.claims;
    entry "fig14" "Scallop rate adaptation without freezes"
      (fun ~quick -> Fig14.compute ~quick ()) Fig14.print Fig14.claims;
    entry "fig15" "Scalability gain over a 32-core server"
      (fun ~quick:_ -> Fig15.compute ()) Fig15.print Fig15.claims;
    entry "fig16" "Best/worst-case meetings supported"
      (fun ~quick:_ -> Fig16.compute ()) Fig16.print Fig16.claims;
    entry "fig17" "Replication-tree design capacities"
      (fun ~quick:_ -> Fig17.compute ()) Fig17.print Fig17.claims;
    entry "fig18" "Sequence-rewriting retransmission overhead"
      (fun ~quick -> Fig18.compute ~quick ()) Fig18.print Fig18.claims;
    entry "fig19" "Per-packet forwarding latency"
      (fun ~quick -> Fig19.compute ~quick ()) Fig19.print Fig19.claims;
    entry "tab3" "Tofino resource utilization"
      (fun ~quick -> Table3.compute ~quick ()) Table3.print Table3.claims;
    entry "fig20_21" "Campus concurrency over two weeks"
      (fun ~quick -> Fig20_21.compute ~quick ()) Fig20_21.print Fig20_21.claims;
    entry "fig22" "Software SFU vs switch agent byte rates"
      (fun ~quick -> Fig22.compute ~quick ()) Fig22.print Fig22.claims;
    entry "fig23_25" "Per-receiver and per-layer forwarded bytes"
      (fun ~quick -> Fig23_25.compute ~quick ()) Fig23_25.print Fig23_25.claims;
    entry "feedback_modes" "REMB vs TWCC switch-agent load (5.2)"
      (fun ~quick -> Feedback_modes.compute ~quick ()) Feedback_modes.print Feedback_modes.claims;
    entry "simulcast" "Simulcast rendition splicing (3)"
      (fun ~quick -> Simulcast_exp.compute ~quick ()) Simulcast_exp.print Simulcast_exp.claims;
    entry "control_plane" "Control-plane RTT/loss vs join latency"
      (fun ~quick -> Control_plane.compute ~quick ()) Control_plane.print Control_plane.claims;
    entry "failover" "Failure recovery: crash/partition chaos vs clean re-convergence"
      (fun ~quick -> Failover.compute ~quick ()) Failover.print Failover.claims;
    entry "ctrl_failover" "Controller failover: recovery latency vs journal size"
      (fun ~quick -> Ctrl_failover.compute ~quick ()) Ctrl_failover.print Ctrl_failover.claims;
    entry "ctrl_churn" "Control-plane churn: per-op vs batched RPC throughput"
      (fun ~quick:_ -> Ctrl_churn.compute ()) Ctrl_churn.print Ctrl_churn.claims;
    entry "qoe_chaos" "QoE SLO burn-rate alerting and trace-linked attribution"
      (fun ~quick -> Qoe_chaos.compute ~quick ()) Qoe_chaos.print Qoe_chaos.claims;
    entry "ablations" "Design-choice ablations (feedback filter, sequence rewriting)"
      (fun ~quick -> Ablations.compute ~quick ()) Ablations.print Ablations.claims;
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let run_all ?quick () =
  List.fold_left
    (fun held e ->
      Printf.printf "--- %s: %s\n    paper: %s\n\n" e.id e.title (String.concat "; " e.claims);
      e.run ?quick () && held)
    true all
