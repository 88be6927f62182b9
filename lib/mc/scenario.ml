module Engine = Netsim.Engine
module Control_channel = Netsim.Control_channel
module C = Scallop.Controller
module A = Scallop.Switch_agent
module T = Scallop.Rpc_transport
module Mutation = Scallop.Mutation
module Trace = Scallop_obs.Trace
module An = Scallop_analysis
module Common = Experiments.Common

type config = {
  sc_seed : int;
  sc_mutations : Mutation.t list;
  sc_ties : bool;
  sc_channel : bool;
  sc_faults : bool;
  sc_window_ms : int * int;
  sc_fault_every_ms : int;
  sc_horizon_s : float;
  sc_cluster : bool;
}

let default =
  {
    sc_seed = 11;
    sc_mutations = [];
    sc_ties = false;
    sc_channel = true;
    sc_faults = true;
    sc_window_ms = (2000, 4200);
    sc_fault_every_ms = 250;
    sc_horizon_s = 10.0;
    sc_cluster = false;
  }

type outcome = {
  o_violations : Temporal.violation list;
  o_findings : An.finding list;
  o_state_hash : int;
  o_log : (int * int) list;
  o_chosen : int array;
  o_events : int;
  o_now : int;
}

let has_violations o = o.o_violations <> []

let failed o =
  has_violations o || List.exists (fun f -> f.An.severity = An.Error) o.o_findings

(* The workload mirrors test_failover's [execute] harness: a 3-party
   meeting (2 senders) against a single batched switch, with a join and
   two quality-pin ops fired at fixed virtual times. Ops serialize
   through a queue because a blocking controller call pumps the engine
   through its retries — a later op's timer can fire mid-call.

   In cluster mode each op targets whichever instance is currently the
   acting primary. An op that lands mid-failover (the primary is killed
   or freshly deposed) raises [Unavailable]/[Deposed_primary] {e before}
   journaling anything; it is re-queued at the {e front} — submission
   order, and therefore every replayed identifier, stays deterministic —
   and retried after the failure detector has had a beat to promote. *)
let install_workload stack mid parts =
  let live = ref (List.map fst parts) in
  let pending = ref [] in
  let busy = ref false in
  let rec drain () =
    match !pending with
    | [] -> ()
    | f :: rest -> (
        pending := rest;
        match f (Common.endpoint stack) with
        | () -> drain ()
        | exception (C.Unavailable | C.Deposed_primary) ->
            pending := f :: !pending;
            Engine.schedule stack.Common.engine ~after:(Engine.ms 300) pump)
  and pump () =
    if not !busy then begin
      busy := true;
      Fun.protect ~finally:(fun () -> busy := false) drain
    end
  in
  let enqueue f =
    pending := !pending @ [ f ];
    pump ()
  in
  let next_index = ref 10 in
  let op i f =
    Engine.at stack.Common.engine
      ~time:(Engine.sec (0.8 +. float_of_int i))
      (fun () -> enqueue f)
  in
  op 0 (fun ctrl ->
      match !live with
      | s :: _ :: r :: _ ->
          C.set_pair_target ctrl ~sender:s ~receiver:r (Av1.Dd.target_of_index 0)
      | _ -> ());
  op 1 (fun ctrl ->
      match !live with
      | _ :: s :: r :: _ ->
          C.set_pair_target ctrl ~sender:s ~receiver:r (Av1.Dd.target_of_index 2)
      | _ -> ());
  (* the late joiner's client is created once and remembered: a retry
     after a failover must re-issue the join, not re-register the host *)
  let joiner = ref None in
  op 2 (fun ctrl ->
      let client =
        match !joiner with
        | Some c -> c
        | None ->
            incr next_index;
            let c =
              Common.add_client stack.Common.engine stack.Common.network
                stack.Common.rng ~index:!next_index ()
            in
            joiner := Some c;
            c
      in
      let pid = C.join ctrl mid client ~send_media:false in
      live := !live @ [ pid ])

(* Crash/restart decision points: one ternary choice per grid slot in
   the active window — 0 = nothing, 1 = crash (if up), 2 = restart (if
   down). Redundant picks (crash a crashed agent) collapse to nothing,
   so every choice sequence is valid. All slots are decided up front,
   before the engine runs, so fault decisions occupy the earliest
   choice-sequence positions — counterexamples that only need fault
   timing stay shallow no matter how many channel/tie choice points the
   run consumes later. *)
(* Controller fault decision points (cluster mode): two ternary slots at
   the window's start and midpoint — 0 = nothing, 1 = kill the acting
   primary (the detector then promotes the standby), 2 = force-promote
   the standby with the primary still healthy (a false-positive failure
   detection, the split-brain seed fencing must contain). Decided before
   the agent grid, so controller-fault counterexamples occupy the very
   first choice-sequence positions. *)
let install_ctrl_faults stack cluster cfg choice =
  let w0, w1 = cfg.sc_window_ms in
  let times = [| w0; (w0 + w1) / 2 |] in
  let decided = Array.map (fun _ -> Choice.next choice ~arity:3) times in
  Array.iteri
    (fun i pick ->
      Engine.at stack.Common.engine ~time:(Engine.ms times.(i)) (fun () ->
          match pick with
          | 1 -> Scallop.Cluster.kill_primary cluster
          | 2 -> Scallop.Cluster.promote cluster
          | _ -> ()))
    decided

let install_faults stack cfg choice =
  let w0, w1 = cfg.sc_window_ms in
  let slots = (w1 - w0) / cfg.sc_fault_every_ms in
  let decided = Array.init slots (fun _ -> Choice.next choice ~arity:3) in
  let up = ref true in
  Array.iteri
    (fun i pick ->
      Engine.at stack.Common.engine
        ~time:(Engine.ms (w0 + (i * cfg.sc_fault_every_ms)))
        (fun () ->
          match pick with
          | 1 when !up ->
              A.crash stack.Common.agent;
              up := false
          | 2 when not !up ->
              A.restart stack.Common.agent;
              up := true
          | _ -> ()))
    decided

let run ?(config = default) ?on_event ~forced () =
  let cfg = config in
  let choice = Choice.create ~forced () in
  let prev_level = Trace.level () in
  if prev_level = Trace.Off then Trace.set_level Trace.Rpc;
  Trace.reset ();
  let checker = Temporal.create (Rules.all ()) in
  (match on_event with
  | None -> Temporal.attach checker
  | Some tap ->
      Trace.set_listener
        (Some
           (fun ev ->
             tap ev;
             Temporal.feed checker ev)));
  Mutation.disable_all ();
  List.iter Mutation.enable cfg.sc_mutations;
  Fun.protect
    ~finally:(fun () ->
      Temporal.detach ();
      Mutation.disable_all ();
      Trace.set_level prev_level)
    (fun () ->
      let stack =
        Common.make_scallop ~seed:cfg.sc_seed
          ?pair:(if cfg.sc_cluster then Some Scallop.Cluster.default else None)
          ()
      in
      let engine = stack.Common.engine in
      let w0, w1 = cfg.sc_window_ms in
      let in_window () =
        let now = Engine.now engine in
        now >= Engine.ms w0 && now <= Engine.ms w1
      in
      let finish ~findings ~state_hash ~crash =
        let now = Engine.now engine in
        let violations = Temporal.finish ~now checker in
        let violations =
          match crash with
          | None -> violations
          | Some msg ->
              violations
              @ [
                  {
                    Temporal.v_rule = "no-crash";
                    v_detail = "uncaught exception: " ^ msg;
                    v_ts = now;
                    v_events = [];
                  };
                ]
        in
        {
          o_violations = violations;
          o_findings = findings;
          o_state_hash = state_hash;
          o_log = Choice.log choice;
          o_chosen = Choice.chosen choice;
          o_events = Temporal.events_seen checker;
          o_now = now;
        }
      in
      try
        let mid, parts =
          Common.scallop_meeting stack ~participants:3 ~senders:2 ()
        in
        install_workload stack mid parts;
        if cfg.sc_faults then begin
          Option.iter (fun cl -> install_ctrl_faults stack cl cfg choice) stack.Common.cluster;
          install_faults stack cfg choice
        end;
        if cfg.sc_ties then
          Engine.set_chooser engine
            (Some
               (fun ~ready ->
                 if in_window () then Choice.next choice ~arity:(min ready 3)
                 else 0));
        if cfg.sc_channel then begin
          let chan =
            T.Client.channel (C.control_channel stack.Common.controller 0)
          in
          Control_channel.set_interposer chan
            (Some
               (fun ~dir:_ _ ->
                 if in_window () then
                   match Choice.next choice ~arity:3 with
                   | 1 -> Control_channel.Delay 7_000_000
                   | 2 -> Control_channel.Drop
                   | _ -> Control_channel.Deliver
                 else Control_channel.Deliver))
        end;
        Common.start_health stack;
        Engine.run engine ~until:(Engine.sec cfg.sc_horizon_s);
        Common.stop_health stack;
        (* settle any tail work the health shutdown scheduled *)
        Engine.run engine ~until:(Engine.now engine);
        Engine.set_chooser engine None;
        let findings = Common.verify stack in
        finish ~findings
          ~state_hash:(An.state_hash (An.snapshot (Common.endpoint stack)))
          ~crash:None
      with exn ->
        (* an uncaught exception is itself a finding — the schedule drove
           the system into a state the code never expected. The end state
           is unusable, so the hash covers only the crash identity. *)
        Engine.set_chooser engine None;
        let msg = Printexc.to_string exn in
        finish ~findings:[] ~state_hash:(Hashtbl.hash ("crash", msg))
          ~crash:(Some msg))
