module Engine = Netsim.Engine
module Table = Scallop_util.Table

type point = {
  rtt_ms : int;
  loss : float;
  joins : int;
  mean_join_ms : float;
  max_join_ms : float;
  wire_requests : int;
  retries : int;
  failures : int;
  agent_rpc_calls : int;
}

(* Retries make calls on a lossy channel succeed with overwhelming
   probability (p_fail ~= (2*loss)^attempts per call), so the sweep can
   push loss high without joins failing outright. *)
let sweep_config ~rtt_ms ~loss =
  let base = Scallop.Rpc_transport.degraded ~loss ~rtt_ns:(Engine.ms rtt_ms) () in
  { base with Scallop.Rpc_transport.max_retries = 10 }

let measure ?(participants = 4) ~rtt_ms ~loss () =
  let control = sweep_config ~rtt_ms ~loss in
  let stack = Common.make_scallop ~seed:83 ~control () in
  let mid = Scallop.Controller.create_meeting stack.controller in
  let latencies =
    List.init participants (fun i ->
        let client =
          Common.add_client stack.engine stack.network stack.rng ~index:i ()
        in
        let started = Engine.now stack.engine in
        let _pid =
          Scallop.Controller.join stack.controller mid client ~send_media:(i < 2)
        in
        float_of_int (Engine.now stack.engine - started) /. 1e6)
  in
  {
    rtt_ms;
    loss;
    joins = List.length latencies;
    mean_join_ms = List.fold_left ( +. ) 0.0 latencies /. float_of_int participants;
    max_join_ms = List.fold_left Float.max 0.0 latencies;
    wire_requests = Common.rpc_sum stack "wire_requests";
    retries = Common.rpc_sum stack "retries";
    failures = Common.rpc_sum stack "failures";
    agent_rpc_calls =
      Scallop_obs.Metrics.read ~labels:[ ("switch", "sw0") ] "scallop_agent_rpc_calls";
  }

let compute ?(quick = false) () =
  let rtts = if quick then [ 0; 20; 50 ] else [ 0; 5; 20; 50; 100 ] in
  let losses = if quick then [ 0.0; 0.2 ] else [ 0.0; 0.1; 0.3 ] in
  List.concat_map
    (fun rtt_ms -> List.map (fun loss -> measure ~rtt_ms ~loss ()) losses)
    rtts

let claims =
  [
    Claim.int "§5.1" "failed control calls" ~paper:"every join completes" ~eq:0
      (fun points -> List.fold_left (fun acc p -> acc + p.failures) 0 points);
    Claim.float "§5.1" "mean join ms on an ideal channel" ~paper:"controller off the media path"
      ~decimals:1 ~eq:0.0 (fun points -> (List.hd points).mean_join_ms);
    Claim.float "§5.1" "mean join in RTTs at the largest RTT"
      ~paper:"signaling latency scales with RTT" ~decimals:2 ~ge:1.0 (fun points ->
        let p = List.find (fun p -> p.loss = 0.0) (List.rev points) in
        p.mean_join_ms /. float_of_int p.rtt_ms);
  ]

let print points =
  let table =
    Table.create ~title:"Control-plane RTT/loss vs participant join latency"
      ~columns:
        [ "ctrl RTT ms"; "ctrl loss"; "joins"; "mean join ms"; "max join ms";
          "wire reqs"; "retries"; "failures"; "agent msgs" ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [ Table.cell_i p.rtt_ms; Table.cell_pct p.loss; Table.cell_i p.joins;
          Table.cell_f ~decimals:1 p.mean_join_ms;
          Table.cell_f ~decimals:1 p.max_join_ms; Table.cell_i p.wire_requests;
          Table.cell_i p.retries; Table.cell_i p.failures;
          Table.cell_i p.agent_rpc_calls ])
    points;
  Table.print table;
  print_endline
    "Join latency scales with control RTT (several serial RPCs per join) and loss adds retry\n\
     timeouts; with an ideal channel joins are instantaneous, matching the direct-call design."
