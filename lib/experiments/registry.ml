type entry = {
  id : string;
  title : string;
  paper_claim : string;
  run : ?quick:bool -> unit -> unit;
}

let all =
  [
    {
      id = "fig2";
      title = "Media streams at the SFU vs meeting size";
      paper_claim = "~200 streams at 10 participants, >700 at 25";
      run = (fun ?quick () -> Fig2.run ?quick ());
    };
    {
      id = "fig3_4";
      title = "Software SFU jitter and frame rate under load";
      paper_claim = "100% CPU ~80 participants; fps drops from ~60";
      run = (fun ?quick () -> Fig3_4.run ?quick ());
    };
    {
      id = "tab1";
      title = "Control/data-plane packet split (3-party meeting)";
      paper_claim = "96.46% of packets / 99.65% of bytes in the data plane";
      run = (fun ?quick () -> Table1.run ?quick ());
    };
    {
      id = "replay";
      title = "Campus-trace replay (1 headline claim)";
      paper_claim = "96.5% of packets / 99.7% of bytes stay in the data plane under churn";
      run = (fun ?quick () -> Replay.run ?quick ());
    };
    {
      id = "tab2";
      title = "Packet-capture summary (Appendix C)";
      paper_claim = "per-flow / per-stream structure of a campus capture";
      run = (fun ?quick () -> Table2.run ?quick ());
    };
    {
      id = "fig14";
      title = "Scallop rate adaptation without freezes";
      paper_claim = "30 -> 15 fps steps at the constrained receiver, no freezes";
      run = (fun ?quick () -> Fig14.run ?quick ());
    };
    {
      id = "fig15";
      title = "Scalability gain over a 32-core server";
      paper_claim = "7-210x more meetings";
      run = (fun ?quick () -> Fig15.run ?quick ());
    };
    {
      id = "fig16";
      title = "Best/worst-case meetings supported";
      paper_claim = "Scallop ahead of software at every configuration";
      run = (fun ?quick () -> Fig16.run ?quick ());
    };
    {
      id = "fig17";
      title = "Replication-tree design capacities";
      paper_claim = "128K NRA / 42.7K RA-R / 4.3K RA-SR(10p) / 533K two-party";
      run = (fun ?quick () -> Fig17.run ?quick ());
    };
    {
      id = "fig18";
      title = "Sequence-rewriting retransmission overhead";
      paper_claim = "<5% at 10% loss, ~7.5% at 20%, <20% at 40%";
      run = (fun ?quick () -> Fig18.run ?quick ());
    };
    {
      id = "fig19";
      title = "Per-packet forwarding latency";
      paper_claim = "26.8x lower median, 8.5x lower p99";
      run = (fun ?quick () -> Fig19.run ?quick ());
    };
    {
      id = "tab3";
      title = "Tofino resource utilization";
      paper_claim = "fits in 7/5 stages, every resource <22%";
      run = (fun ?quick () -> Table3.run ?quick ());
    };
    {
      id = "fig20_21";
      title = "Campus concurrency over two weeks";
      paper_claim = "diurnal weekday peaks, quiet weekends";
      run = (fun ?quick () -> Fig20_21.run ?quick ());
    };
    {
      id = "fig22";
      title = "Software SFU vs switch agent byte rates";
      paper_claim = "~1250 Mb/s vs ~4.4 Mb/s at campus peak";
      run = (fun ?quick () -> Fig22.run ?quick ());
    };
    {
      id = "fig23_25";
      title = "Per-receiver and per-layer forwarded bytes";
      paper_claim = "enhancement templates vanish when a receiver is reduced";
      run = (fun ?quick () -> Fig23_25.run ?quick ());
    };
    {
      id = "feedback_modes";
      title = "REMB vs TWCC switch-agent load (5.2)";
      paper_claim = "sender-driven TWCC needs one feedback packet per 10-20 media packets";
      run = (fun ?quick () -> Feedback_modes.run ?quick ());
    };
    {
      id = "simulcast";
      title = "Simulcast rendition splicing (3)";
      paper_claim = "Zoom combines Simulcast and SVC; adaptation = forwarding a labeled subset";
      run = (fun ?quick () -> Simulcast_exp.run ?quick ());
    };
    {
      id = "control_plane";
      title = "Control-plane RTT/loss vs join latency";
      paper_claim = "the controller acts only on session changes (5.1), so control-path \
                     degradation costs signaling latency, never media quality";
      run = (fun ?quick () -> Control_plane.run ?quick ());
    };
    {
      id = "failover";
      title = "Failure recovery: crash/partition chaos vs clean re-convergence";
      paper_claim = "the data plane forwards last-known state through control outages; \
                     the controller re-converges by one resync from intent";
      run = (fun ?quick () -> Failover.run ?quick ());
    };
    {
      id = "ctrl_failover";
      title = "Controller failover: recovery latency vs journal size";
      paper_claim = "the controller holds only restartable session state (5.1); a \
                     standby rebuilds it from journaled intent, so takeover is \
                     detection-bound and rebuild is bounded by compaction";
      run = (fun ?quick () -> Ctrl_failover.run ?quick ());
    };
    {
      id = "ctrl_churn";
      title = "Control-plane churn: per-op vs batched RPC throughput";
      paper_claim = "the controller acts only on session changes (5.1); batching its \
                     wire ops keeps join latency flat as churn concentrates";
      run = (fun ?quick () -> Ctrl_churn.run ?quick ());
    };
    {
      id = "qoe_chaos";
      title = "QoE SLO burn-rate alerting and trace-linked attribution";
      paper_claim = "loss injected on one named downlink fires an SLO alert whose \
                     attribution cites that link and a replayable trace window";
      run = (fun ?quick () -> Qoe_chaos.run ?quick ());
    };
    {
      id = "ablations";
      title = "Design-choice ablations (feedback filter, sequence rewriting)";
      paper_claim = "naive feedback converges to the slowest receiver (5.3); raw gaps trigger endless retransmissions (6.2)";
      run = (fun ?quick () -> Ablations.run ?quick ());
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let run_all ?quick () =
  List.iter
    (fun e ->
      Printf.printf "--- %s: %s\n    paper: %s\n\n" e.id e.title e.paper_claim;
      e.run ?quick ())
    all
