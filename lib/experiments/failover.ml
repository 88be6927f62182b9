module Engine = Netsim.Engine
module Link = Netsim.Link
module Chaos = Netsim.Chaos
module Rng = Scallop_util.Rng
module Table = Scallop_util.Table
module C = Scallop.Controller
module A = Scallop.Switch_agent
module T = Scallop.Rpc_transport
module An = Scallop_analysis

type recovery = {
  detected_ms : float;
  recovered_ms : float;
  latency_ms : float;
  ops : int;
}

type result = {
  schedule : Chaos.schedule;
  recoveries : recovery list;  (** oldest first *)
  partition_egress : (int * int) list;
      (** per partition fault: egress replicas emitted inside the window *)
  skipped_peak : int;  (** most ops skipped against an unavailable switch at once *)
  findings_after : An.finding list;
}

(* One switch, a live meeting, and a seed-derived fault schedule: a full
   power-cycle (state wiped, epoch bumped -> resync on heal) plus a
   control partition (state intact -> resync on heal only if ops were
   skipped meanwhile) plus a degraded-control burst, with churn (a join
   and a leave) landing while faults are active. *)
let compute ?(quick = false) ?(seed = 97) () =
  let stack = Common.make_scallop ~seed () in
  let horizon = Engine.sec (if quick then 20.0 else 40.0) in
  let participants = if quick then 3 else 5 in
  let mid, parts = Common.scallop_meeting stack ~participants ~senders:2 () in
  C.start_health stack.controller;
  let chaos_rng = Rng.split stack.rng in
  let schedule =
    Chaos.generate chaos_rng ~nodes:1 ~horizon_ns:horizon ~crashes:1 ~partitions:1
      ~loss_bursts:1 ~loss:0.3 ~disjoint:true ()
  in
  let chan = C.control_channel stack.controller 0 in
  let set_loss _node loss =
    Link.set_loss (T.Client.request_link chan) loss;
    Link.set_loss (T.Client.reply_link chan) loss
  in
  Chaos.install stack.engine schedule
    ~crash:(fun _ -> A.crash stack.agent)
    ~restart:(fun _ -> A.restart stack.agent)
    ~set_loss;
  (* media-continuity probes around every partition window *)
  let partition_egress = ref [] in
  List.iter
    (fun fault ->
      match fault with
      | Chaos.Partition { from_ns; until_ns; _ } ->
          let at_start = ref 0 in
          Engine.at stack.engine ~time:from_ns (fun () ->
              at_start := Scallop.Dataplane.egress_pkts stack.dp);
          Engine.at stack.engine ~time:until_ns (fun () ->
              partition_egress :=
                (from_ns, Scallop.Dataplane.egress_pkts stack.dp - !at_start)
                :: !partition_egress)
      | Chaos.Crash_restart _ | Chaos.Control_loss _ -> ())
    schedule;
  (* churn in the thick of the fault window: both ops either complete
     normally or are skipped against an unavailable switch and covered by
     its resync *)
  let skipped_seen = ref 0 in
  let note_skipped () =
    let intent = C.introspect stack.controller in
    List.iter
      (fun (h : C.health_view) -> skipped_seen := max !skipped_seen h.C.hv_skipped)
      intent.C.in_health
  in
  Engine.at stack.engine ~time:(horizon * 2 / 5) (fun () ->
      let client =
        Common.add_client stack.engine stack.network stack.rng ~index:(participants + 1)
          ()
      in
      ignore (C.join stack.controller mid client ~send_media:true);
      note_skipped ());
  Engine.at stack.engine
    ~time:(horizon / 2)
    (fun () ->
      (match List.rev parts with
      | (pid, _) :: _ -> C.leave stack.controller pid
      | [] -> ());
      note_skipped ());
  let run_until = max horizon (Chaos.horizon_end schedule + Engine.sec 5.0) in
  Engine.run ~until:run_until stack.engine;
  C.stop_health stack.controller;
  let recoveries =
    List.rev_map
      (fun (e : C.recovery_event) ->
        {
          detected_ms = float_of_int e.C.re_detected_ns /. 1e6;
          recovered_ms = float_of_int e.C.re_recovered_ns /. 1e6;
          latency_ms = float_of_int (e.C.re_recovered_ns - e.C.re_detected_ns) /. 1e6;
          ops = e.C.re_ops;
        })
      (C.recovery_log stack.controller)
  in
  {
    schedule;
    recoveries;
    partition_egress = List.rev !partition_egress;
    skipped_peak = !skipped_seen;
    findings_after = An.verify stack.controller;
  }

let claims =
  [
    Claim.int "§5.1" "resyncs" ~paper:"re-converges by resync from intent" ~ge:1
      (fun r -> List.length r.recoveries);
    Claim.int "§5.1" "fewest egress replicas in a partition"
      ~paper:"data plane forwards through control outages" ~gt:0 (fun r ->
        List.fold_left (fun acc (_, pkts) -> min acc pkts) max_int r.partition_egress);
    Claim.int "§5.1" "post-recovery verifier errors" ~paper:"clean state" ~eq:0
      (fun r -> List.length (An.errors r.findings_after));
  ]

let print r =
  Printf.printf "Fault schedule (seed-derived, virtual time):\n%s\n\n"
    (Chaos.describe r.schedule);
  let table =
    Table.create ~title:"Failure recovery by resync (detection -> clean state)"
      ~columns:[ "detected ms"; "recovered ms"; "latency ms"; "RPCs" ]
  in
  List.iter
    (fun rec_ ->
      Table.add_row table
        [
          Table.cell_f ~decimals:1 rec_.detected_ms;
          Table.cell_f ~decimals:1 rec_.recovered_ms;
          Table.cell_f ~decimals:1 rec_.latency_ms;
          Table.cell_i rec_.ops;
        ])
    r.recoveries;
  Table.print table;
  List.iter
    (fun (from_ns, pkts) ->
      Printf.printf
        "Partition at %.1f ms: data plane kept forwarding — %d egress replicas during \
         the control outage.\n"
        (float_of_int from_ns /. 1e6)
        pkts)
    r.partition_egress;
  Printf.printf "Peak ops skipped against an unavailable switch: %d\n" r.skipped_peak;
  let errs = An.errors r.findings_after in
  Printf.printf "Post-recovery verification: %d finding(s), %d error(s).\n"
    (List.length r.findings_after) (List.length errs);
  if errs <> [] then print_endline (An.report errs);
  print_endline
    "The controller detects the outage by missed heartbeats and keeps updating intent\n\
     while skipping the wire side of ops the switch cannot take. It heals by one\n\
     mechanism: a switch that rebooted or missed ops is resynced from intent as one\n\
     batch; one back at the same epoch having missed nothing just turns healthy. Media\n\
     through a partitioned switch never stops; only a power-cycled switch drops media\n\
     until resync."
