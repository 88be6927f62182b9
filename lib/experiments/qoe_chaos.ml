module Engine = Netsim.Engine
module Link = Netsim.Link
module Network = Netsim.Network
module Table = Scallop_util.Table
module Trace = Scallop_obs.Trace
module Qoe = Scallop_obs.Qoe
module Slo = Scallop_obs.Slo
module Attrib = Scallop_obs.Attrib

type result = {
  victim : int;  (* participant id of the afflicted receiver *)
  victim_link : string;
  loss : float;
  burst_from_s : float;
  burst_until_s : float;
  alerts : Slo.alert list;  (* every alert fired, oldest first *)
  findings : Attrib.finding list;  (* attribution of the first victim alert *)
  summaries : Qoe.summary list;
  link_named : bool;  (* some finding cites the injected link *)
  roundtrip_ok : bool;  (* finding JSON parses back to the same finding *)
}

(* One meeting, a healthy warm-up, then a seed-independent loss burst
   injected on the last (receive-only) participant's named downlink. The
   QoE collectors feed the SLO engine, which is evaluated every 500 ms of
   virtual time; the first alert against the victim is attributed back
   through the trace to the faulty link. Deterministic: the same seed
   produces the identical alerts and findings. *)
let compute ?(quick = false) ?(seed = 7) ?(loss = 0.3) () =
  let prev_level = Trace.level () in
  Trace.set_level Trace.Packet;
  Trace.reset ();
  Qoe.reset ();
  let stack = Common.make_scallop ~seed () in
  let participants = 3 and senders = 2 in
  let _mid, members = Common.scallop_meeting stack ~participants ~senders () in
  let victim = fst (List.nth members (participants - 1)) in
  let victim_ip = Common.client_ip (participants - 1) in
  let downlink = Network.downlink stack.Common.network ~ip:victim_ip in
  let victim_link = Link.name downlink in
  let slo = Slo.create () in
  Engine.every stack.Common.engine ~interval:(Engine.ms 500) (fun () ->
      ignore (Slo.evaluate slo ~now_ns:(Engine.now stack.Common.engine));
      true);
  let warm = if quick then 4.0 else 8.0 in
  let burst = if quick then 3.0 else 4.0 in
  let cool = if quick then 3.0 else 6.0 in
  Engine.at stack.Common.engine ~time:(Engine.sec warm) (fun () ->
      Link.set_loss downlink loss);
  Engine.at stack.Common.engine
    ~time:(Engine.sec (warm +. burst))
    (fun () -> Link.set_loss downlink 0.0);
  Common.run_for stack.Common.engine ~seconds:(warm +. burst +. cool);
  let now_ns = Engine.now stack.Common.engine in
  let alerts = Slo.alerts slo in
  let victim_alerts =
    List.filter (fun (a : Slo.alert) -> a.Slo.a_key.Qoe.k_receiver = victim) alerts
  in
  let findings =
    match victim_alerts with [] -> [] | a :: _ -> Attrib.of_alert a
  in
  let link_named =
    List.exists
      (fun (f : Attrib.finding) ->
        f.Attrib.f_component = "link" && f.Attrib.f_subject = victim_link)
      findings
  in
  let roundtrip_ok =
    List.for_all
      (fun f -> Attrib.finding_of_json (Attrib.finding_to_json f) = Some f)
      findings
  in
  let summaries = List.map (fun c -> Qoe.summary c ~now_ns) (Qoe.all ()) in
  Trace.set_level prev_level;
  {
    victim;
    victim_link;
    loss;
    burst_from_s = warm;
    burst_until_s = warm +. burst;
    alerts;
    findings;
    summaries;
    link_named;
    roundtrip_ok;
  }

let opt_ms = function None -> "-" | Some v -> Printf.sprintf "%.1f" v

let summary_table summaries =
  let table =
    Table.create ~title:"Per-stream QoE (engine view)"
      ~columns:
        [
          "stream"; "pkts"; "gaps"; "rec"; "frames"; "T0/T1/T2 %"; "freezes";
          "frozen ms"; "m2e p50"; "m2e p99"; "loss %";
        ]
  in
  List.iter
    (fun (s : Qoe.summary) ->
      Table.add_row table
        [
          Qoe.key_str s.Qoe.s_key;
          string_of_int s.Qoe.s_packets;
          string_of_int s.Qoe.s_gap_packets;
          string_of_int s.Qoe.s_recovered;
          string_of_int s.Qoe.s_frames;
          (if s.Qoe.s_key.Qoe.k_kind = Qoe.Video then
             Printf.sprintf "%.0f/%.0f/%.0f"
               (100.0 *. s.Qoe.s_layer_share.(0))
               (100.0 *. s.Qoe.s_layer_share.(1))
               (100.0 *. s.Qoe.s_layer_share.(2))
           else "-");
          string_of_int s.Qoe.s_freeze_count;
          Table.cell_f ~decimals:0 s.Qoe.s_frozen_ms;
          opt_ms s.Qoe.s_m2e_p50_ms;
          opt_ms s.Qoe.s_m2e_p99_ms;
          Table.cell_f ~decimals:2 (100.0 *. s.Qoe.s_loss_ratio);
        ])
    summaries;
  table

let claims =
  [
    Claim.int "QoE" "SLO alerts" ~paper:"loss on one downlink fires an alert" ~ge:1
      (fun r -> List.length r.alerts);
    Claim.holds "QoE" "attribution names the faulty link" ~paper:"trace-linked attribution"
      (fun r -> r.link_named);
    Claim.holds "QoE" "findings round-trip through JSON" ~paper:"replayable report"
      (fun r -> r.roundtrip_ok);
  ]

let print r =
  Printf.printf
    "chaos: %.0f%% loss on %s (victim p%d) during [%.1fs, %.1fs]\n\n"
    (100.0 *. r.loss) r.victim_link r.victim r.burst_from_s r.burst_until_s;
  Table.print (summary_table r.summaries);
  List.iter (fun a -> Printf.printf "slo alert: %s\n" (Slo.alert_str a)) r.alerts;
  print_newline ();
  List.iter (fun f -> Printf.printf "finding: %s\n" (Attrib.render f)) r.findings;
  Printf.printf
    "\nqoe report: %d alert(s), %d finding(s); faulty link %s: %s; json \
     round-trip: %s\n"
    (List.length r.alerts) (List.length r.findings) r.victim_link
    (if r.link_named then "named" else "NOT NAMED")
    (if r.roundtrip_ok then "ok" else "FAILED")
