(* Command-line front end for the Scallop reproduction: list and run the
   paper's experiments, or print the capacity model for a given meeting
   shape. *)

open Cmdliner

let quick_arg =
  let doc = "Run a reduced-scale version of the experiment." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let list_cmd =
  let run () =
    let table =
      Scallop_util.Table.create ~title:"Experiments (paper artefacts)"
        ~columns:[ "id"; "title"; "paper claims" ]
    in
    List.iter
      (fun (e : Experiments.Registry.entry) ->
        List.iteri
          (fun i claim ->
            Scallop_util.Table.add_row table
              (if i = 0 then [ e.id; e.title; claim ] else [ ""; ""; claim ]))
          e.claims)
      Experiments.Registry.all;
    Scallop_util.Table.print table
  in
  Cmd.v (Cmd.info "list" ~doc:"List every reproducible table and figure.")
    Term.(const run $ const ())

let csv_arg =
  Arg.(value & opt (some string) None
       & info [ "csv" ] ~docv:"DIR" ~doc:"Also write every printed table as DIR/<title>.csv.")

(* Every table printed from here on is also written as <dir>/<title>.csv,
   the title's non-alphanumeric characters replaced by '_'. *)
let csv_to_dir dir =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let sanitize =
    String.map (fun c ->
        match Char.lowercase_ascii c with 'a' .. 'z' | '0' .. '9' -> c | _ -> '_')
  in
  Scallop_util.Table.set_csv_sink
    (Some
       (fun ~title ~csv ->
         let oc = open_out (Filename.concat dir (sanitize title ^ ".csv")) in
         output_string oc csv;
         close_out oc))

let run_cmd =
  let ids =
    let doc = "Experiment ids (see $(b,list)); empty means all." in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let run quick csv ids =
    Option.iter csv_to_dir csv;
    let held =
      match ids with
      | [] -> Ok (Experiments.Registry.run_all ~quick ())
      | ids ->
          List.fold_left
            (fun acc id ->
              match Experiments.Registry.find id with
              | Some e ->
                  let held = e.run ~quick () in
                  Result.map (fun all -> all && held) acc
              | None -> Error (`Msg (Printf.sprintf "unknown experiment %S (try 'list')" id)))
            (Ok true) ids
    in
    if held = Ok false then exit 1;
    Result.map ignore held
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run one or more experiments (all by default); exit 1 if a claim row is FAIL.")
    Term.(term_result (const run $ quick_arg $ csv_arg $ ids))

let capacity_cmd =
  let participants =
    Arg.(value & opt int 10 & info [ "n"; "participants" ] ~doc:"Participants per meeting.")
  in
  let senders =
    Arg.(value & opt (some int) None & info [ "s"; "senders" ] ~doc:"Senders (default: all).")
  in
  let run participants senders =
    let senders = Option.value senders ~default:participants in
    let table =
      Scallop_util.Table.create
        ~title:
          (Printf.sprintf "Meetings supported (%d participants, %d senders)" participants
             senders)
        ~columns:[ "design"; "meetings"; "bottleneck"; "gain vs 32-core server" ]
    in
    let designs =
      if participants = 2 then [ ("two-party", Scallop.Capacity.Two_party) ]
      else
        [
          ("NRA", Scallop.Capacity.Nra);
          ("RA-R", Scallop.Capacity.Ra_r);
          ("RA-SR", Scallop.Capacity.Ra_sr);
        ]
    in
    List.iter
      (fun (name, design) ->
        let what, meetings =
          Scallop.Capacity.bottleneck design ~participants ~senders ()
        in
        let gain = Scallop.Capacity.gain_over_software design ~participants ~senders () in
        Scallop_util.Table.add_row table
          [ name; string_of_int meetings; what; Printf.sprintf "%.1fx" gain ])
      designs;
    Scallop_util.Table.print table
  in
  Cmd.v
    (Cmd.info "capacity" ~doc:"Print the capacity model for a meeting shape.")
    Term.(const run $ participants $ senders)

(* The controller-to-agent control channel of a simulated world; each
   command picks its own default RTT. *)
let control_term ~rtt_ms =
  let ctrl_rtt_ms =
    Arg.(value & opt int rtt_ms
         & info [ "ctrl-rtt-ms" ] ~doc:"Controller-to-agent control channel RTT (ms).")
  in
  let ctrl_loss =
    Arg.(value & opt float 0.0
         & info [ "ctrl-loss" ] ~doc:"Control channel iid loss probability per direction.")
  in
  Term.(
    const (fun rtt_ms loss ->
        Scallop.Rpc_transport.degraded ~loss ~rtt_ns:(Netsim.Engine.ms rtt_ms) ())
    $ ctrl_rtt_ms $ ctrl_loss)

(* An RPC that exhausts its retries ends the command with one error. *)
let unless_control_dead f =
  try f ()
  with Scallop.Rpc_transport.Timed_out { op; attempts; _ } ->
    Error
      (`Msg
        (Printf.sprintf
           "control plane dead: %s gave up after %d attempts (lower --ctrl-loss?)" op
           attempts))

let simulate_cmd =
  let participants =
    Arg.(value & opt int 3 & info [ "n"; "participants" ] ~doc:"Participants.")
  in
  let senders =
    Arg.(value & opt (some int) None & info [ "s"; "senders" ] ~doc:"Senders (default: all).")
  in
  let seconds =
    Arg.(value & opt float 10.0 & info [ "d"; "duration" ] ~doc:"Simulated seconds.")
  in
  let downlink_mbps =
    Arg.(value & opt (some float) None
         & info [ "downlink" ] ~doc:"Cap the last participant's downlink (Mb/s).")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"After the run, verify cross-layer state invariants and fail on any violation.")
  in
  let paranoid =
    Arg.(value & flag
         & info [ "paranoid" ]
             ~doc:"Run the data plane in differential mode: every egress datagram is \
                   materialized by both the zero-copy fast path and the record slow \
                   path and byte-compared; any divergence aborts the run.")
  in
  let chaos =
    Arg.(value & flag
         & info [ "chaos" ]
             ~doc:"Inject a seed-derived fault schedule against the switch: one \
                   power-cycle, one control partition and one degraded-control burst, \
                   spread disjointly over the run. Arms the controller's heartbeat \
                   failure detector; the run is extended past the last fault so every \
                   repair (a resync from intent) completes. \
                   Deterministic: the same seeds reproduce the identical run.")
  in
  let chaos_seed =
    Arg.(value & opt int 1
         & info [ "chaos-seed" ] ~docv:"SEED"
             ~doc:"Seed for the --chaos fault schedule (placement and durations).")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace-event JSON of the run to $(docv) (open in \
                   chrome://tracing or Perfetto). Virtual-time timestamps make the \
                   file byte-identical across runs with the same seed.")
  in
  let trace_level =
    let levels =
      [
        ("off", Scallop_obs.Trace.Off);
        ("rpc", Scallop_obs.Trace.Rpc);
        ("packet", Scallop_obs.Trace.Packet);
        ("verbose", Scallop_obs.Trace.Verbose);
      ]
    in
    Arg.(value & opt (enum levels) Scallop_obs.Trace.Packet
         & info [ "trace-level" ] ~docv:"LEVEL"
             ~doc:"Trace detail when --trace-out is given: $(b,rpc) (control-plane \
                   spans only), $(b,packet) (adds per-packet causal events), \
                   $(b,verbose) (adds suppressed replicas). Default: packet.")
  in
  let mc =
    Arg.(value & flag
         & info [ "mc" ]
             ~doc:"Attach the temporal protocol checker to the run: every \
                   control-plane trace event is evaluated online against the \
                   $(b,Scallop_mc) rule catalogue (exactly-once, epoch \
                   monotonicity, batch order, quiet-heal, ...) and any \
                   violation fails the command.")
  in
  let run participants senders seconds downlink_mbps control check paranoid chaos chaos_seed
      trace_out trace_level mc =
    unless_control_dead @@ fun () ->
    let senders = Option.value senders ~default:participants in
    if trace_out <> None then Scallop_obs.Trace.set_level trace_level;
    let checker =
      if mc then begin
        if not (Scallop_obs.Trace.enabled Scallop_obs.Trace.Rpc) then
          Scallop_obs.Trace.set_level Scallop_obs.Trace.Rpc;
        Scallop_obs.Trace.reset ();
        let c = Scallop_mc.Temporal.create (Scallop_mc.Rules.all ()) in
        Scallop_mc.Temporal.attach c;
        Some c
      end
      else None
    in
    let stack = Experiments.Common.make_scallop ~seed:99 ~control () in
    if paranoid then
      Scallop.Dataplane.set_mode stack.Experiments.Common.dp Scallop.Dataplane.Paranoid;
    let _mid, members =
      Experiments.Common.scallop_meeting stack ~participants ~senders ()
    in
    Option.iter
      (fun mbps ->
        Netsim.Link.set_rate
          (Netsim.Network.downlink stack.Experiments.Common.network
             ~ip:(Experiments.Common.client_ip (participants - 1)))
          (mbps *. 1e6))
      downlink_mbps;
    let run_until = ref (Netsim.Engine.sec seconds) in
    if chaos then begin
      Experiments.Common.start_health stack;
      let schedule =
        Netsim.Chaos.generate
          (Scallop_util.Rng.create chaos_seed)
          ~nodes:1
          ~horizon_ns:(Netsim.Engine.sec seconds)
          ~crashes:1 ~partitions:1 ~loss_bursts:1 ~loss:0.3 ~disjoint:true ()
        (* meeting setup over a lossy control channel consumes virtual
           time; anchor the schedule at "now" so no fault is in the past *)
        |> Netsim.Chaos.shift (Netsim.Engine.now stack.Experiments.Common.engine)
      in
      Printf.printf "chaos schedule:\n%s\n" (Netsim.Chaos.describe schedule);
      let chan =
        Scallop.Controller.control_channel stack.Experiments.Common.controller 0
      in
      Netsim.Chaos.install stack.Experiments.Common.engine schedule
        ~crash:(fun _ -> Scallop.Switch_agent.crash stack.Experiments.Common.agent)
        ~restart:(fun _ -> Scallop.Switch_agent.restart stack.Experiments.Common.agent)
        ~set_loss:(fun _ loss ->
          Netsim.Link.set_loss (Scallop.Rpc_transport.Client.request_link chan) loss;
          Netsim.Link.set_loss (Scallop.Rpc_transport.Client.reply_link chan) loss);
      (* leave room after the last heal for detection + repair *)
      run_until :=
        max !run_until (Netsim.Chaos.horizon_end schedule + Netsim.Engine.sec 5.0)
    end;
    Netsim.Engine.run stack.Experiments.Common.engine ~until:!run_until;
    if chaos then begin
      Experiments.Common.stop_health stack;
      List.iter
        (fun (e : Scallop.Controller.recovery_event) ->
          Printf.printf
            "recovery: resync of sw%d — detected %.1f ms, recovered %.1f ms (%d RPCs)\n"
            e.Scallop.Controller.re_agent
            (float_of_int e.Scallop.Controller.re_detected_ns /. 1e6)
            (float_of_int e.Scallop.Controller.re_recovered_ns /. 1e6)
            e.Scallop.Controller.re_ops)
        (List.rev
           (Scallop.Controller.recovery_log stack.Experiments.Common.controller));
      Printf.printf "post-chaos agent state: %s\n"
        (Scallop.Controller.health_name
           (Scallop.Controller.agent_health stack.Experiments.Common.controller 0))
    end;
    let table =
      Scallop_util.Table.create ~title:"Per-stream receive quality"
        ~columns:[ "receiver"; "sender"; "decoded fps"; "jitter (ms)"; "freezes" ]
    in
    let pids = List.map fst members in
    List.iter
      (fun rx_pid ->
        List.iter
          (fun tx_pid ->
            if rx_pid <> tx_pid then
              match
                Scallop.Controller.recv_connection stack.Experiments.Common.controller
                  rx_pid ~from:tx_pid
              with
              | None -> ()
              | Some conn -> (
                  match Webrtc.Client.receiver conn with
                  | None -> ()
                  | Some rx ->
                      Scallop_util.Table.add_row table
                        [
                          string_of_int rx_pid;
                          string_of_int tx_pid;
                          Scallop_util.Table.cell_f ~decimals:1
                            (float_of_int (Codec.Video_receiver.frames_decoded rx)
                            /. seconds);
                          Scallop_util.Table.cell_f (Codec.Video_receiver.jitter_ms rx);
                          Scallop_util.Table.cell_i (Codec.Video_receiver.freezes rx);
                        ]))
          pids)
      pids;
    Scallop_util.Table.print table;
    let c = Scallop.Dataplane.ingress_counters stack.Experiments.Common.dp in
    let dp_pkts = c.rtp_audio_pkts + c.rtp_video_pkts + c.rtcp_sr_sdes_pkts in
    let agent what = Scallop_obs.Metrics.read ~labels:[ ("switch", "sw0") ] what in
    Printf.printf "data plane: %d pkts; agent CPU copies: %d; migrations: %d\n" dp_pkts
      (Scallop.Dataplane.cpu_pkts stack.Experiments.Common.dp)
      (agent "scallop_agent_migrations");
    let rpc = Experiments.Common.rpc_sum stack in
    Printf.printf
      "control plane: %d RPCs on the wire (%d retries, %d failures), %d received by agent\n"
      (rpc "wire_requests") (rpc "retries") (rpc "failures")
      (agent "scallop_agent_rpc_calls");
    let fp = Scallop.Dataplane.fastpath_stats stack.Experiments.Common.dp in
    Printf.printf
      "fast path: %d fast / %d slow ingress, %d replica copies; PRE cache: %d hits, \
       %d misses, %d invalidations, %d resident\n"
      fp.Scallop.Dataplane.fp_fast_pkts fp.Scallop.Dataplane.fp_slow_pkts
      fp.Scallop.Dataplane.fp_replica_copies fp.Scallop.Dataplane.fp_cache_hits
      fp.Scallop.Dataplane.fp_cache_misses fp.Scallop.Dataplane.fp_cache_invalidations
      fp.Scallop.Dataplane.fp_cache_entries;
    Printf.printf
      "replica pool: %d recycled / %d fresh checkouts, high water %d, %d still live\n"
      fp.Scallop.Dataplane.fp_pool_recycled fp.Scallop.Dataplane.fp_pool_fresh
      fp.Scallop.Dataplane.fp_pool_high_water fp.Scallop.Dataplane.fp_pool_live;
    if paranoid then
      Printf.printf "paranoid: %d egress datagrams byte-compared, %d mismatches\n"
        fp.Scallop.Dataplane.fp_paranoid_checks
        fp.Scallop.Dataplane.fp_paranoid_mismatches;
    (* the trace note goes to stderr so stdout stays byte-identical to an
       untraced run — a golden diffs the two to prove tracing is inert *)
    Option.iter
      (fun path ->
        Scallop_obs.Trace.write_chrome_json path;
        Printf.eprintf "trace: %d event(s) written to %s (%d dropped)\n"
          (List.length (Scallop_obs.Trace.events ()))
          path
          (Scallop_obs.Trace.dropped ()))
      trace_out;
    let mc_result =
      match checker with
      | None -> Ok ()
      | Some c ->
          Scallop_mc.Temporal.detach ();
          let now = Netsim.Engine.now stack.Experiments.Common.engine in
          let violations = Scallop_mc.Temporal.finish ~now c in
          if violations = [] then begin
            Printf.printf "mc: %d trace event(s) checked, no protocol violations\n"
              (Scallop_mc.Temporal.events_seen c);
            Ok ()
          end
          else begin
            List.iter
              (fun v -> Format.printf "mc: %a@." Scallop_mc.Temporal.pp_violation v)
              violations;
            Error
              (`Msg
                (Printf.sprintf "mc: %d protocol violation(s)"
                   (List.length violations)))
          end
    in
    let check_result =
      if check then begin
        let findings = Experiments.Common.verify stack in
        let errors = Scallop_analysis.errors findings in
        if findings = [] then begin
          Printf.printf "state check: clean\n";
          Ok ()
        end
        else begin
          print_endline (Scallop_analysis.report findings);
          if errors = [] then begin
            Printf.printf "state check: %d warning(s), no errors\n" (List.length findings);
            Ok ()
          end
          else
            Error
              (`Msg
                (Printf.sprintf "state check: %d invariant violation(s)"
                   (List.length errors)))
        end
      end
      else Ok ()
    in
    (match mc_result with Error _ as e -> e | Ok () -> check_result)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run one meeting through Scallop and print a QoE report.")
    Term.(term_result
            (const run $ participants $ senders $ seconds $ downlink_mbps
             $ control_term ~rtt_ms:0 $ check $ paranoid $ chaos
             $ chaos_seed $ trace_out $ trace_level $ mc))

let check_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Scenario seed.") in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit one machine-readable JSON document (per-point findings, \
                   error count, clean flag) instead of the human report. The \
                   finding encoding is shared with $(b,explore).")
  in
  let failover =
    Arg.(value & flag
         & info [ "failover" ]
             ~doc:
               "Run the controller tier as the fault-tolerant primary/standby \
                pair, kill the acting primary mid-churn, and continue against \
                the promoted standby (its state rebuilt from the intent \
                journal). Every verification point then also checks the \
                cluster invariants: single acting primary and journal-replay \
                fidelity.")
  in
  let journal_out =
    Arg.(value & opt (some string) None
         & info [ "journal-out" ] ~docv:"FILE"
             ~doc:
               "With $(b,--failover): write the intent journal's dump (live \
                entries plus snapshot marker) to $(docv) at end of run.")
  in
  let run control seed json failover journal_out =
    unless_control_dead @@ fun () ->
      let module Common = Experiments.Common in
      let stack =
        Common.make_scallop ~seed ~switches:2 ~control
          ?pair:(if failover then Some Scallop.Cluster.default else None)
          ()
      in
      let engine = stack.Common.engine in
      let ctrl () = Common.endpoint stack in
      let client i =
        Common.add_client engine stack.Common.network stack.Common.rng ~index:(500 + i)
          ~uplink:Netsim.Link.default ~downlink:Netsim.Link.default ()
      in
      let total_errors = ref 0 in
      let points = ref [] in
      let slo = Scallop_obs.Slo.create () in
      let verify_point label =
        (* QoE SLOs ride along with the state checks: any burn over the
           live collectors surfaces here too *)
        ignore (Scallop_obs.Slo.evaluate slo ~now_ns:(Netsim.Engine.now engine));
        let findings = Common.verify stack in
        let errors = Scallop_analysis.errors findings in
        if json then points := (label, findings) :: !points
        else begin
          Printf.printf "%-34s %d finding(s), %d error(s)\n" label
            (List.length findings) (List.length errors);
          if findings <> [] then print_endline (Scallop_analysis.report findings)
        end;
        total_errors := !total_errors + List.length errors
      in
      let run_for seconds = Common.run_for engine ~seconds in
      (* a cascaded meeting: senders on both switches, plus mid-call churn
         and a screen share — every controller trigger the paper names *)
      let mid = Scallop.Controller.create_meeting (ctrl ()) in
      let c = Array.init 6 client in
      let p0 = Scallop.Controller.join ~home:0 (ctrl ()) mid c.(0) ~send_media:true in
      let _p1 = Scallop.Controller.join ~home:0 (ctrl ()) mid c.(1) ~send_media:true in
      let p2 = Scallop.Controller.join ~home:1 (ctrl ()) mid c.(2) ~send_media:true in
      let p3 = Scallop.Controller.join ~home:1 (ctrl ()) mid c.(3) ~send_media:false in
      run_for 2.0;
      verify_point "cascaded meeting (4 members)";
      Scallop.Controller.start_screen_share (ctrl ()) p0;
      run_for 1.0;
      verify_point "screen share started";
      (* kill mid-churn: intent so far is only in the journal; the rest of
         the workload runs against the promoted standby, whose state was
         rebuilt by replay (allocators included — the pids above stay
         valid) and whose fenced resync re-owns both agents *)
      Option.iter
        (fun cl ->
          Scallop.Cluster.kill_primary cl;
          run_for 1.0;
          verify_point "primary killed, standby promoted")
        stack.Common.cluster;
      Scallop.Controller.stop_screen_share (ctrl ()) p0;
      Scallop.Controller.leave (ctrl ()) p2;
      Scallop.Controller.leave (ctrl ()) p3;
      run_for 1.0;
      verify_point "remote members left";
      let mid2 = Scallop.Controller.create_meeting (ctrl ()) in
      let p4 = Scallop.Controller.join (ctrl ()) mid2 c.(4) ~send_media:true in
      let _p5 = Scallop.Controller.join (ctrl ()) mid2 c.(5) ~send_media:true in
      run_for 2.0;
      verify_point "second meeting up";
      Scallop.Controller.leave (ctrl ()) p4;
      Scallop.Controller.leave (ctrl ()) p0;
      run_for 1.0;
      verify_point "after churn";
      Option.iter
        (fun cl ->
          Option.iter
            (fun path ->
              let oc = open_out path in
              output_string oc (Scallop.Journal.dump (Scallop.Cluster.journal cl));
              close_out oc)
            journal_out)
        stack.Common.cluster;
      Common.stop_health stack;
      let slo_alerts = Scallop_obs.Slo.alerts slo in
      if json then begin
        let module J = Scallop_mc.Mc_json in
        print_endline
          (J.obj
             [
               ( "points",
                 J.arr
                   (List.rev_map
                      (fun (label, findings) ->
                        J.obj
                          [
                            ("label", J.str label);
                            ("findings", J.arr (List.map J.finding findings));
                          ])
                      !points) );
               ( "slo_alerts",
                 J.arr
                   (List.map
                      (fun a -> J.str (Scallop_obs.Slo.alert_str a))
                      slo_alerts) );
               ("errors", J.int !total_errors);
               ("clean", J.bool (!total_errors = 0));
             ])
      end
      else begin
        List.iter
          (fun a ->
            Printf.printf "slo alert: %s\n" (Scallop_obs.Slo.alert_str a))
          slo_alerts;
        if slo_alerts = [] then Printf.printf "slo: no QoE burn\n";
        (* the registry-backed view of both switches (fast path, PRE cache,
           agent and controller RPC counters), one sorted dump instead of a
           bespoke printf per series *)
        print_string (Scallop_obs.Metrics.dump ())
      end;
      if !total_errors = 0 then begin
        if not json then Printf.printf "all state checks clean\n";
        Ok ()
      end
      else
        Error
          (`Msg (Printf.sprintf "state check: %d invariant violation(s)" !total_errors))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Drive a cascaded meeting through churn and statically verify the \
          controller/agent/data-plane state invariants at every quiescent point.")
    Term.(term_result
            (const run $ control_term ~rtt_ms:2 $ seed $ json $ failover $ journal_out))

let metrics_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the registry as JSON instead of Prometheus text.")
  in
  let participants =
    Arg.(value & opt int 3 & info [ "n"; "participants" ] ~doc:"Participants.")
  in
  let seconds =
    Arg.(value & opt float 2.0 & info [ "d"; "duration" ] ~doc:"Simulated seconds.")
  in
  let run json participants seconds =
    let stack = Experiments.Common.make_scallop ~seed:99 () in
    let _mid, _members =
      Experiments.Common.scallop_meeting stack ~participants ~senders:participants ()
    in
    (* the failure detector registers the scallop_ctrl_health_* /
       recovery-log metrics; run it so the dump covers them *)
    Experiments.Common.start_health stack;
    Netsim.Engine.run stack.Experiments.Common.engine
      ~until:(Netsim.Engine.sec seconds);
    Experiments.Common.stop_health stack;
    print_string
      (if json then Scallop_obs.Metrics.dump_json () else Scallop_obs.Metrics.dump ())
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a short canonical meeting and dump every registry-backed metric \
          (data-plane fast path, PRE cache, control-plane RPC) in Prometheus text \
          or JSON form.")
    Term.(const run $ json $ participants $ seconds)

let qoe_cmd =
  let module Qc = Experiments.Qoe_chaos in
  let module Slo = Scallop_obs.Slo in
  let module Qoe = Scallop_obs.Qoe in
  let module Attrib = Scallop_obs.Attrib in
  let quick = quick_arg in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Scenario seed.") in
  let loss =
    Arg.(value & opt float 0.3
         & info [ "loss" ] ~doc:"Loss probability injected on the victim's downlink.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the full report (alerts, findings, per-stream summaries) \
                   as one JSON document instead of the human tables.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json-out" ] ~docv:"FILE"
             ~doc:"Also write the JSON report to $(docv).")
  in
  let expect_burn =
    Arg.(value & flag
         & info [ "expect-burn" ]
             ~doc:"Fail unless at least one SLO alert fired and the attribution \
                   named the injected link.")
  in
  let report_json (r : Qc.result) =
    let fs = Printf.sprintf "%.6g" in
    let alert (a : Slo.alert) =
      Printf.sprintf
        "{\"slo\": \"%s\", \"stream\": \"%s\", \"at_ns\": %d, \"burn_long\": \
         %s, \"burn_short\": %s, \"window_ns\": [%d, %d]}"
        a.Slo.a_slo
        (Qoe.key_str a.Slo.a_key)
        a.Slo.a_at_ns (fs a.Slo.a_burn_long) (fs a.Slo.a_burn_short)
        a.Slo.a_from_ns a.Slo.a_until_ns
    in
    let summary (s : Qoe.summary) =
      Printf.sprintf
        "{\"stream\": \"%s\", \"packets\": %d, \"gap_packets\": %d, \
         \"recovered\": %d, \"frames\": %d, \"freezes\": %d, \"frozen_ms\": \
         %s, \"loss_ratio\": %s}"
        (Qoe.key_str s.Qoe.s_key)
        s.Qoe.s_packets s.Qoe.s_gap_packets s.Qoe.s_recovered s.Qoe.s_frames
        s.Qoe.s_freeze_count (fs s.Qoe.s_frozen_ms) (fs s.Qoe.s_loss_ratio)
    in
    Printf.sprintf
      "{\"victim\": %d, \"victim_link\": \"%s\", \"loss\": %s, \"burst_s\": \
       [%s, %s],\n\
       \"alerts\": [%s],\n\
       \"findings\": [%s],\n\
       \"summaries\": [%s],\n\
       \"link_named\": %b, \"roundtrip\": %b}"
      r.Qc.victim r.Qc.victim_link (fs r.Qc.loss) (fs r.Qc.burst_from_s)
      (fs r.Qc.burst_until_s)
      (String.concat ", " (List.map alert r.Qc.alerts))
      (String.concat ",\n" (List.map Attrib.finding_to_json r.Qc.findings))
      (String.concat ", " (List.map summary r.Qc.summaries))
      r.Qc.link_named r.Qc.roundtrip_ok
  in
  let run quick seed loss json json_out expect_burn =
    let r = Qc.compute ~quick ~seed ~loss () in
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (report_json r);
        output_char oc '\n';
        close_out oc)
      json_out;
    if json then print_endline (report_json r) else Qc.print r;
    if not r.Qc.roundtrip_ok then
      Error (`Msg "qoe: finding JSON failed to round-trip")
    else if expect_burn && r.Qc.alerts = [] then
      Error (`Msg "qoe: expected an SLO alert, none fired")
    else if expect_burn && not r.Qc.link_named then
      Error
        (`Msg
          (Printf.sprintf "qoe: attribution did not name the faulty link %s"
             r.Qc.victim_link))
    else Ok ()
  in
  Cmd.v
    (Cmd.info "qoe"
       ~doc:
         "Run the QoE observability drill: inject loss on one receiver's named \
          downlink, fire SLO burn-rate alerts from the live QoE collectors, and \
          attribute the burn back through the deterministic trace to the faulty \
          link.")
    Term.(term_result
            (const run $ quick $ seed $ loss $ json $ json_out $ expect_burn))

let trace_cmd =
  let meetings =
    Arg.(value & opt int 19_704 & info [ "meetings" ] ~doc:"Meetings to synthesize.")
  in
  let days = Arg.(value & opt int 14 & info [ "days" ] ~doc:"Horizon in days.") in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Generator seed.") in
  let run meetings days seed csv =
    Option.iter csv_to_dir csv;
    let dataset = Trace.Dataset.generate (Scallop_util.Rng.create seed) ~days ~meetings () in
    Printf.printf "synthesized %d meetings over %d days (%.0f%% two-party)

"
      (Array.length dataset.Trace.Dataset.meetings)
      days
      (100.0 *. Trace.Dataset.two_party_fraction dataset);
    Experiments.Fig2.print (Experiments.Fig2.of_dataset dataset);
    let meetings_ts, participants_ts =
      Trace.Dataset.concurrency_series dataset ~bin_ns:3_600_000_000_000
    in
    let conc =
      Scallop_util.Table.create ~title:"hourly concurrency"
        ~columns:[ "hour"; "meetings"; "participants" ]
    in
    let parts = Scallop_util.Timeseries.bins participants_ts in
    Array.iteri
      (fun i (time, m) ->
        if i < Array.length parts then
          Scallop_util.Table.add_row conc
            [
              string_of_int (time / 3_600_000_000_000);
              Scallop_util.Table.cell_f ~decimals:0 m;
              Scallop_util.Table.cell_f ~decimals:0 (snd parts.(i));
            ])
      (Scallop_util.Timeseries.bins meetings_ts);
    (match csv with
    | Some _ -> Scallop_util.Table.print conc
    | None -> Printf.printf "(pass --csv DIR to dump the %d-hour concurrency series)
"
                (Array.length (Scallop_util.Timeseries.bins meetings_ts)));
    Scallop_util.Table.set_csv_sink None
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Synthesize the campus workload and dump its distributions.")
    Term.(const run $ meetings $ days $ seed $ csv_arg)

let explore_cmd =
  let module Mc = Scallop_mc in
  let mutations_conv =
    Arg.enum
      (List.map (fun m -> (Scallop.Mutation.name m, m)) Scallop.Mutation.all)
  in
  let mutate =
    Arg.(value & opt_all mutations_conv []
         & info [ "mutate" ] ~docv:"DEFECT"
             ~doc:
               (Printf.sprintf
                  "Enable a seeded protocol defect for every explored schedule \
                   (repeatable). One of: %s. The search is expected to find a \
                   violating schedule — the mutation CI gate asserts it does."
                  (String.concat ", "
                     (List.map
                        (fun m -> Printf.sprintf "$(b,%s)" (Scallop.Mutation.name m))
                        Scallop.Mutation.all))))
  in
  let runs =
    Arg.(value & opt int Mc.Explore.default_budget.Mc.Explore.b_max_runs
         & info [ "runs" ] ~docv:"N" ~doc:"Schedule budget: simulations allowed.")
  in
  let depth =
    Arg.(value & opt int Mc.Explore.default_budget.Mc.Explore.b_max_depth
         & info [ "depth" ] ~docv:"N"
             ~doc:"Deepest choice position the DFS may branch on.")
  in
  let replay =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"CHOICES"
             ~doc:"Skip the search: run the single schedule pinned by this \
                   comma-separated choice sequence (as printed for a \
                   counterexample) and report its violations.")
  in
  let ties =
    Arg.(value & flag
         & info [ "ties" ]
             ~doc:"Also branch on same-timestamp event permutations (the \
                   engine's tie-break chooser) inside the choice window.")
  in
  let no_channel =
    Arg.(value & flag
         & info [ "no-channel" ]
             ~doc:"Disable delivery-fate (deliver/delay/drop) choice points on \
                   the control channel.")
  in
  let no_faults =
    Arg.(value & flag
         & info [ "no-faults" ]
             ~doc:"Disable the crash/restart decision grid.")
  in
  let cluster =
    Arg.(value & flag
         & info [ "cluster" ]
             ~doc:
               "Run the controller tier as the fault-tolerant primary/standby \
                pair: the fault grid gains kill-primary and force-promote \
                decision points, and the end-state check adds the cluster \
                invariants (single acting primary, journal-replay fidelity). \
                Implied by $(b,--mutate skip-fencing-check).")
  in
  let seed = Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Simulation seed.") in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the search result as one JSON document (finding \
                   encoding shared with $(b,check --json)).")
  in
  let seq_out =
    Arg.(value & opt (some string) None
         & info [ "seq-out" ] ~docv:"FILE"
             ~doc:"Write the counterexample's (or replayed schedule's) choice \
                   sequence to $(docv) — the CI artifact that pins a failing \
                   interleaving.")
  in
  let dump =
    Arg.(value & flag
         & info [ "dump" ]
             ~doc:"With $(b,--replay): print every trace event as it happens \
                   (timestamp, name, args) — the schedule's full timeline, for \
                   debugging a counterexample.")
  in
  let run mutate runs depth replay ties no_channel no_faults cluster seed json
      seq_out dump =
    let config =
      {
        Mc.Scenario.default with
        Mc.Scenario.sc_seed = seed;
        sc_mutations = mutate;
        sc_ties = ties;
        sc_channel = not no_channel;
        sc_faults = not no_faults;
        sc_cluster =
          (* the skip-fencing-check defect only has observable effect in a
             run with two controller instances to race *)
          cluster || List.mem Scallop.Mutation.Skip_fencing_check mutate;
      }
    in
    let budget =
      {
        Mc.Explore.default_budget with
        Mc.Explore.b_max_runs = runs;
        b_max_depth = depth;
      }
    in
    let write_seq chosen =
      Option.iter
        (fun path ->
          let oc = open_out path in
          output_string oc (Mc.Choice.to_string chosen);
          output_char oc '\n';
          close_out oc)
        seq_out
    in
    let report_outcome (o : Mc.Scenario.outcome) =
      List.iter
        (fun v -> Format.printf "violation: %a@." Mc.Temporal.pp_violation v)
        o.Mc.Scenario.o_violations;
      List.iter
        (fun (f : Scallop_analysis.finding) ->
          Format.printf "end-state: %a@." Scallop_analysis.pp_finding f)
        o.Mc.Scenario.o_findings;
      Printf.printf "choices: %s\n" (Mc.Choice.to_string o.Mc.Scenario.o_chosen)
    in
    match replay with
    | Some seq ->
        let forced =
          try Mc.Choice.of_string seq
          with Invalid_argument m -> failwith m
        in
        let on_event =
          if dump then
            Some
              (fun (ev : Scallop_obs.Trace.event) ->
                Printf.printf "%10dns %-14s %s\n" ev.Scallop_obs.Trace.ts
                  ev.Scallop_obs.Trace.name
                  (String.concat " "
                     (List.map
                        (fun (k, v) ->
                          Printf.sprintf "%s=%s" k
                            (match v with
                            | Scallop_obs.Trace.S s -> s
                            | Scallop_obs.Trace.I n -> string_of_int n))
                        ev.Scallop_obs.Trace.args)))
          else None
        in
        let o = Mc.Scenario.run ~config ?on_event ~forced () in
        write_seq o.Mc.Scenario.o_chosen;
        if json then print_endline (Mc.Mc_json.outcome o)
        else begin
          Printf.printf
            "replayed %d choice point(s), %d trace event(s), end at %.3fs\n"
            (List.length o.Mc.Scenario.o_log)
            o.Mc.Scenario.o_events
            (float_of_int o.Mc.Scenario.o_now /. 1e9);
          report_outcome o
        end;
        if Mc.Scenario.failed o then
          Error
            (`Msg
              (Printf.sprintf "replay: %d violation(s)"
                 (List.length o.Mc.Scenario.o_violations)))
        else Ok ()
    | None -> (
        let result = Mc.Explore.search_scenario ~budget ~config () in
        let s = result.Mc.Explore.r_stats in
        if json then print_endline (Mc.Mc_json.explore_report result)
        else
          Printf.printf
            "explored %d schedule(s) (%d memo hit(s), %d pruned, %d distinct \
             end state(s), deepest branch at choice %d)\n"
            s.Mc.Explore.s_runs s.Mc.Explore.s_memo_hits s.Mc.Explore.s_pruned
            s.Mc.Explore.s_states s.Mc.Explore.s_deepest;
        match result.Mc.Explore.r_counterexample with
        | None -> Ok ()
        | Some o ->
            write_seq o.Mc.Scenario.o_chosen;
            if not json then begin
              Printf.printf "counterexample found:\n";
              report_outcome o
            end;
            Error
              (`Msg
                (Printf.sprintf
                   "exploration found a violating schedule (%d violation(s)); \
                    replay with --replay '%s'"
                   (List.length o.Mc.Scenario.o_violations)
                   (Mc.Choice.to_string o.Mc.Scenario.o_chosen))))
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Systematically explore control-plane schedules (crash/restart timing, \
          control-channel delivery fates, same-timestamp permutations) under a \
          bounded budget, checking every run against the temporal protocol \
          rules. Prints a replayable choice sequence for any violation found.")
    Term.(term_result
            (const run $ mutate $ runs $ depth $ replay $ ties $ no_channel
             $ no_faults $ cluster $ seed $ json $ seq_out $ dump))

let () =
  let doc = "Scallop (SIGCOMM'25) reproduction: SDN-based selective forwarding unit" in
  let info = Cmd.info "scallop" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; run_cmd; capacity_cmd; simulate_cmd; check_cmd; explore_cmd;
            metrics_cmd; qoe_cmd; trace_cmd;
          ]))
