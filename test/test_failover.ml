(* Failure detection and recovery: crash/restart resync, partition
   tolerance (media keeps flowing while control is severed, skipped ops
   are covered by one resync on heal), a clean return without repair,
   ops landing mid-resync, and anti-entropy repair. The QCheck property
   is the heart of it: a run that crashes mid-way and resyncs from
   intent must converge to the same agent state as the run that never
   crashed. *)

module Engine = Netsim.Engine
module Link = Netsim.Link
module Rng = Scallop_util.Rng
module C = Scallop.Controller
module A = Scallop.Switch_agent
module D = Scallop.Dataplane
module T = Scallop.Rpc_transport
module An = Scallop_analysis
module Cl = Scallop.Cluster
module Common = Experiments.Common

(* Canonical agent shadow state for equivalence checks: everything the
   control plane installed, minus media-driven fields — adaptive-leg
   targets and the best-downlink selection evolve with traffic the
   crashed run did not deliver, and meeting ids / tree handles are
   allocator artifacts of the replay. [amv_pair_specific] is also out:
   it is a sticky mode bit ("a pair target was ever set"), and when the
   pinned pair leaves before the crash the controller rightly drops the
   pin from intent, so the replayed agent cannot (and should not)
   reconstruct the stickiness. *)
let canon_agent agent =
  A.introspect agent
  |> List.map (fun (m : A.meeting_view) ->
         let streams =
           m.A.amv_streams
           |> List.map (fun (s : A.stream_view) ->
                  let legs =
                    s.A.asv_legs
                    |> List.map (fun (l : A.leg_view) ->
                           ( l.A.alv_port,
                             l.A.alv_receiver,
                             l.A.alv_adaptive,
                             if l.A.alv_adaptive then None else Some l.A.alv_target ))
                    |> List.sort compare
                  in
                  ( s.A.asv_uplink_port,
                    s.A.asv_sender,
                    s.A.asv_video_ssrc,
                    s.A.asv_audio_ssrc,
                    Array.to_list s.A.asv_renditions,
                    legs ))
           |> List.sort compare
         in
         ( List.sort compare m.A.amv_members,
           List.sort compare m.A.amv_senders,
           streams ))
  |> List.sort compare

let set_control_loss stack loss =
  let chan = C.control_channel stack.Common.controller 0 in
  Link.set_loss (T.Client.request_link chan) loss;
  Link.set_loss (T.Client.reply_link chan) loss

let run_to stack seconds =
  Engine.run stack.Common.engine ~until:(Engine.sec seconds)

let health_view stack =
  match (C.introspect stack.Common.controller).C.in_health with
  | [ h ] -> h
  | hs -> Alcotest.failf "expected one health view, got %d" (List.length hs)

(* --- crash + restart: epoch bump forces a full resync ------------------- *)

let crash_restart_resyncs () =
  let stack = Common.make_scallop ~seed:31 () in
  let mid, _parts = Common.scallop_meeting stack ~participants:4 ~senders:2 () in
  C.start_health stack.controller;
  run_to stack 1.5;
  A.crash stack.agent;
  run_to stack 4.0;
  Alcotest.(check string)
    "declared dead while down" "dead"
    (C.health_name (C.agent_health stack.controller 0));
  (* mutate intent while the switch is dead: must not raise, skips the wire *)
  let pids = C.meeting_participants stack.controller mid in
  C.set_pair_target stack.controller ~sender:(List.hd pids)
    ~receiver:(List.nth pids 2) Av1.Dd.DT_15fps;
  Alcotest.(check bool) "op skipped" true ((health_view stack).C.hv_skipped > 0);
  A.restart stack.agent;
  run_to stack 8.0;
  C.stop_health stack.controller;
  Alcotest.(check string)
    "healthy after heal" "healthy"
    (C.health_name (C.agent_health stack.controller 0));
  Alcotest.(check bool) "a resync happened" true (C.recovery_log stack.controller <> []);
  Alcotest.(check int) "nothing left skipped" 0 (health_view stack).C.hv_skipped;
  (* the skipped pin was replayed: the meeting runs pair-specific trees
     (the target itself may keep adapting with feedback afterwards) *)
  Alcotest.(check bool)
    "pair pin survived the replay" true
    (List.exists
       (fun (m : A.meeting_view) -> m.A.amv_pair_specific)
       (A.introspect stack.agent));
  An.assert_clean ~what:"post crash/restart resync" stack.controller

(* --- partition: media continues, skipped ops heal by one resync -------- *)

let no_duplicates l = List.length (List.sort_uniq compare l) = List.length l

let partition_keeps_media_flowing () =
  let stack = Common.make_scallop ~seed:32 () in
  let mid, parts = Common.scallop_meeting stack ~participants:4 ~senders:2 () in
  C.start_health stack.controller;
  run_to stack 2.0;
  set_control_loss stack 1.0;
  let egress_start = D.egress_pkts stack.dp in
  run_to stack 5.0;
  Alcotest.(check string)
    "partition declared dead" "dead"
    (C.health_name (C.agent_health stack.controller 0));
  let epoch_before = A.epoch stack.agent in
  (* control-plane mutations while partitioned: skip the wire, don't raise *)
  let pids = List.map fst parts in
  C.set_pair_target stack.controller ~sender:(List.hd pids)
    ~receiver:(List.nth pids 3) Av1.Dd.DT_7_5fps;
  C.leave stack.controller (List.nth pids 2);
  Alcotest.(check bool) "ops skipped" true ((health_view stack).C.hv_skipped >= 2);
  (* the data plane forwards last-known state through the whole outage *)
  let egress_mid = D.egress_pkts stack.dp in
  Alcotest.(check bool)
    "media flowed before the mutations" true (egress_mid > egress_start + 100);
  run_to stack 6.5;
  Alcotest.(check bool)
    "media flowed after the mutations" true
    (D.egress_pkts stack.dp > egress_mid + 100);
  set_control_loss stack 0.0;
  run_to stack 9.0;
  C.stop_health stack.controller;
  Alcotest.(check int) "agent never rebooted" epoch_before (A.epoch stack.agent);
  Alcotest.(check int) "healed by exactly one resync" 1
    (List.length (C.recovery_log stack.controller));
  Alcotest.(check int) "nothing left skipped" 0 (health_view stack).C.hv_skipped;
  let members = A.meeting_members stack.agent (C.agent_meeting_id stack.controller mid) in
  Alcotest.(check bool)
    "skipped leave applied" true
    (not (List.mem (List.nth pids 2) members));
  Alcotest.(check bool) "no member duplicated" true (no_duplicates members);
  An.assert_clean ~what:"post partition resync" stack.controller

(* --- a switch back at the same epoch having missed nothing: no repair --- *)

let rpc_execs_besides_pings () =
  List.length
    (List.filter
       (fun (e : Scallop_obs.Trace.event) ->
         e.Scallop_obs.Trace.name = "rpc_exec"
         && List.assoc_opt "name" e.Scallop_obs.Trace.args
            <> Some (Scallop_obs.Trace.S "ping"))
       (Scallop_obs.Trace.events ()))

let with_rpc_trace f =
  let module Tr = Scallop_obs.Trace in
  let prev = Tr.level () in
  Tr.set_level Tr.Rpc;
  Tr.reset ();
  Fun.protect ~finally:(fun () -> Tr.set_level prev) f

let quiet_return_needs_no_repair () =
  let stack = Common.make_scallop ~seed:37 () in
  let mid, _ = Common.scallop_meeting stack ~participants:3 ~senders:2 () in
  C.start_health stack.controller;
  run_to stack 1.5;
  let agent_meetings () =
    List.map (fun (m : A.meeting_view) -> m.A.amv_id) (A.introspect stack.agent)
  in
  let meetings_before = agent_meetings () in
  let amid = C.agent_meeting_id stack.controller mid in
  let members_before = A.meeting_members stack.agent amid in
  with_rpc_trace (fun () ->
      set_control_loss stack 1.0;
      run_to stack 4.5;
      Alcotest.(check string)
        "partition declared dead" "dead"
        (C.health_name (C.agent_health stack.controller 0));
      set_control_loss stack 0.0;
      run_to stack 6.0;
      C.stop_health stack.controller;
      Alcotest.(check int) "0 repair RPCs (no Reset, no replay)" 0
        (rpc_execs_besides_pings ()));
  Alcotest.(check string)
    "healthy again" "healthy"
    (C.health_name (C.agent_health stack.controller 0));
  Alcotest.(check int) "no resync recorded" 0
    (List.length (C.recovery_log stack.controller));
  Alcotest.(check (list int)) "agent meetings untouched" meetings_before (agent_meetings ());
  Alcotest.(check (list int))
    "members untouched" members_before
    (A.meeting_members stack.agent amid);
  An.assert_clean ~what:"post quiet return" stack.controller

(* --- regression: an op that lands while a resync is in flight ----------- *)

(* With a 20 ms control round trip the heal's replay spans several RPCs.
   A leave fired the moment the agent executes the replay's third request
   lands while the replay is still in flight. Its wire side cannot go to
   the healing switch; it must not be lost either — the heal settles only
   once a later resync covers it, with no anti-entropy pass. *)
let op_during_resync_is_not_lost () =
  let module Tr = Scallop_obs.Trace in
  let control = T.degraded ~loss:0.0 ~rtt_ns:(Engine.ms 20) () in
  let stack = Common.make_scallop ~seed:38 ~control () in
  let _mid, parts = Common.scallop_meeting stack ~participants:4 ~senders:2 () in
  C.start_health stack.controller;
  run_to stack 1.5;
  A.crash stack.agent;
  run_to stack 4.0;
  A.restart stack.agent;
  let leaver = fst (List.nth parts 2) in
  let left = ref false in
  let execs = ref (-1) in
  let prev = Tr.level () in
  Tr.set_level Tr.Rpc;
  Tr.set_listener
    (Some
       (fun (e : Tr.event) ->
         if e.Tr.name = "heal_begin" && !execs < 0 then execs := 0
         else if
           e.Tr.name = "rpc_exec" && !execs >= 0
           && List.assoc_opt "name" e.Tr.args <> Some (Tr.S "ping")
         then begin
           incr execs;
           if !execs = 3 && not !left then begin
             left := true;
             Engine.schedule stack.engine ~after:1 (fun () ->
                 C.leave stack.controller leaver)
           end
         end));
  Fun.protect
    ~finally:(fun () ->
      Tr.set_listener None;
      Tr.set_level prev)
    (fun () -> run_to stack 9.0);
  C.stop_health stack.controller;
  Alcotest.(check bool) "the leave fired mid-resync" true !left;
  Alcotest.(check string)
    "healthy after heal" "healthy"
    (C.health_name (C.agent_health stack.controller 0));
  An.assert_clean ~what:"op mutated during a resync" stack.controller

(* --- anti-entropy: reconcile repairs a live-but-drifted switch ---------- *)

let reconcile_repairs_drift () =
  let stack = Common.make_scallop ~seed:34 () in
  let _mid, parts = Common.scallop_meeting stack ~participants:3 ~senders:2 () in
  run_to stack 2.0;
  An.assert_clean ~what:"steady state before drift" stack.controller;
  (* reach behind the agent's back and rip a leg out of the data plane *)
  let sender_pid = fst (List.hd parts) in
  let receiver_pid = fst (List.nth parts 2) in
  let info = Option.get (C.participant_sender_info stack.controller sender_pid) in
  D.unregister_leg stack.dp
    ~receiver:receiver_pid
    ~video_ssrc:info.C.video_ssrc;
  let report = An.reconcile stack.controller in
  Alcotest.(check bool) "drift detected" true (An.errors report.An.rr_before <> []);
  (match report.An.rr_repairs with
  | [ (0, Some ops) ] -> Alcotest.(check bool) "repair issued RPCs" true (ops > 0)
  | other ->
      Alcotest.failf "expected one successful repair of sw0, got %d"
        (List.length other));
  Alcotest.(check int) "clean after repair" 0 (List.length (An.errors report.An.rr_after));
  An.assert_clean ~what:"post reconcile" stack.controller

(* --- resync of a cascaded meeting reproduces every encoding -------------- *)

(* The QCheck property below runs one switch and camera streams only.
   This meeting spans two switches and holds every other kind of intent a
   resync replays: senders registered on a non-home switch, relay pseudo
   receivers and their non-adaptive legs, a screen share relayed across
   the cascade, a simulcast sender's renditions and a pinned pair target
   whose receiver sits behind the relay. Resyncing both switches must
   reinstall exactly the state the forward path built. *)
let resync_replays_cascaded_meeting () =
  let engine = Engine.create () in
  let rng = Rng.create 39 in
  let network = Netsim.Network.create engine (Rng.split rng) in
  let switch ip =
    let ip = Scallop_util.Addr.ip_of_string ip in
    Netsim.Network.add_host network ~ip ~uplink:Common.fast_link ~downlink:Common.fast_link ();
    let dp = D.create engine network ~ip () in
    (A.create engine dp (), dp)
  in
  let ((a0, _) as s0) = switch "10.0.0.1" and ((a1, _) as s1) = switch "10.0.0.2" in
  let controller = C.create engine network (Rng.split rng) ~agents:[ s0; s1 ] () in
  let mid = C.create_meeting controller in
  let join ?simulcast index ~home ~send_media =
    let client = Common.add_client engine network rng ~index () in
    C.join ?simulcast ~home controller mid client ~send_media
  in
  let p0 = join 0 ~home:0 ~send_media:true in
  let _p1 = join 1 ~home:0 ~simulcast:true ~send_media:true in
  let p2 = join 2 ~home:1 ~send_media:true in
  let p3 = join 3 ~home:1 ~send_media:false in
  C.start_screen_share controller p2;
  C.set_pair_target controller ~sender:p0 ~receiver:p3 Av1.Dd.DT_15fps;
  Engine.run engine ~until:(Engine.sec 1.0);
  An.assert_clean ~what:"cascaded meeting before the resyncs" controller;
  let before = (canon_agent a0, canon_agent a1) in
  List.iter
    (fun idx ->
      match C.resync_switch controller idx with
      | Some ops -> Alcotest.(check bool) "the resync issued RPCs" true (ops > 0)
      | None -> Alcotest.failf "resync of sw%d did not complete" idx)
    [ 0; 1 ];
  Alcotest.(check bool) "sw0 shadow unchanged" true (canon_agent a0 = fst before);
  Alcotest.(check bool) "sw1 shadow unchanged" true (canon_agent a1 = snd before);
  (* [canon_agent] leaves pair pins out; the pinned receiver's switch
     must run pair-specific trees again *)
  Alcotest.(check bool)
    "the pair pin was replayed on sw1" true
    (List.exists (fun (m : A.meeting_view) -> m.A.amv_pair_specific) (A.introspect a1));
  An.assert_clean ~what:"cascaded meeting after the resyncs" controller

(* --- relay retirement order survives a snapshot restore ------------------ *)

(* Meeting 1 on four switches: a sender homed on sw0, receivers homed on
   sw2 and sw3, so sw0 holds a relay receiver for each; their keys in
   the controller's relay table, (1, 0, 2) and (1, 0, 3), share a
   bucket. The sender's leave retires both. Returns the relay pids sw0
   removes, in execution order. *)
let relay_removals ~restored =
  let engine = Engine.create () in
  let rng = Rng.create 41 in
  let network = Netsim.Network.create engine (Rng.split rng) in
  let switch i =
    let ip = Scallop_util.Addr.ip_of_string (Printf.sprintf "10.0.0.%d" (i + 1)) in
    Netsim.Network.add_host network ~ip ~uplink:Common.fast_link ~downlink:Common.fast_link ();
    let dp = D.create engine network ~ip ~obs_label:(Printf.sprintf "sw%d" i) () in
    (A.create engine dp (), dp)
  in
  let controller = C.create engine network (Rng.split rng) ~agents:(List.init 4 switch) () in
  ignore (C.create_meeting controller);
  let mid = C.create_meeting controller in
  let join index ~home ~send_media =
    let client = Common.add_client engine network rng ~index () in
    C.join ~home controller mid client ~send_media
  in
  let sender = join 0 ~home:0 ~send_media:true in
  ignore (join 1 ~home:2 ~send_media:false);
  ignore (join 2 ~home:3 ~send_media:false);
  Engine.run engine ~until:(Engine.sec 1.0);
  if restored then begin
    (* snapshot at quiescence, then rebuild from it alone *)
    C.compact_journal controller;
    C.kill controller;
    C.restart controller;
    C.promote controller;
    Engine.run engine ~until:(Engine.sec 2.0)
  end;
  with_rpc_trace (fun () ->
      C.leave controller sender;
      Engine.run engine ~until:(Engine.sec 3.0);
      List.filter_map
        (fun (e : Scallop_obs.Trace.event) ->
          let arg k = List.assoc_opt k e.Scallop_obs.Trace.args in
          match (e.Scallop_obs.Trace.name, arg "agent", arg "participant") with
          | "member_del", Some (Scallop_obs.Trace.S "sw0"), Some (Scallop_obs.Trace.I pid)
            when pid >= 900_000 ->
              Some pid
          | _ -> None)
        (Scallop_obs.Trace.events ()))

let restored_controller_retires_relays_in_order () =
  let original = relay_removals ~restored:false in
  Alcotest.(check int) "two relays retired" 2 (List.length original);
  Alcotest.(check (list int)) "restored instance, same order" original
    (relay_removals ~restored:true)

(* --- flapping switch: the detector counts every transition -------------- *)

let flapping_detector_counts_transitions () =
  let stack = Common.make_scallop ~seed:35 () in
  ignore (Common.scallop_meeting stack ~participants:3 ~senders:1 ());
  C.start_health stack.controller;
  run_to stack 1.0;
  (* two suspect/heal flaps: sever control long enough for Suspect
     (2 missed probes at the default 500 ms heartbeat) but heal before
     Dead (4 missed) *)
  set_control_loss stack 1.0;
  run_to stack 2.3;
  Alcotest.(check string) "first flap suspected" "suspect"
    (C.health_name (C.agent_health stack.controller 0));
  set_control_loss stack 0.0;
  run_to stack 3.3;
  Alcotest.(check string) "first flap healed" "healthy"
    (C.health_name (C.agent_health stack.controller 0));
  set_control_loss stack 1.0;
  run_to stack 4.6;
  Alcotest.(check string) "second flap suspected" "suspect"
    (C.health_name (C.agent_health stack.controller 0));
  set_control_loss stack 0.0;
  run_to stack 5.6;
  C.stop_health stack.controller;
  Alcotest.(check string) "second flap healed" "healthy"
    (C.health_name (C.agent_health stack.controller 0));
  (* the per-state transition counters behind scallop_ctrl_health_* see
     the matched suspect/healthy pairs; dead never fired *)
  Alcotest.(check int) "suspect transitions" 2
    (C.health_transitions stack.controller 0 C.Suspect);
  Alcotest.(check int) "healthy transitions" 2
    (C.health_transitions stack.controller 0 C.Healthy);
  Alcotest.(check int) "no dead transition" 0
    (C.health_transitions stack.controller 0 C.Dead);
  An.assert_clean ~what:"post flapping" stack.controller

(* --- recovery log: bounded ring, evictions counted ----------------------- *)

let recovery_log_is_bounded () =
  let stack = Common.make_scallop ~seed:36 () in
  ignore (Common.scallop_meeting stack ~participants:2 ~senders:0 ());
  (* an aggressive detector so 70 power-cycles complete their heal
     resyncs in a short virtual window *)
  C.start_health
    ~config:
      {
        C.heartbeat_every_ns = Engine.ms 50;
        probe_timeout_ns = Engine.ms 25;
        suspect_after = 1;
        dead_after = 2;
      }
    stack.controller;
  run_to stack 0.5;
  for i = 0 to 69 do
    let base = 0.5 +. (0.3 *. float_of_int i) in
    Engine.at stack.engine ~time:(Engine.sec base) (fun () ->
        A.crash stack.agent);
    Engine.at stack.engine
      ~time:(Engine.sec (base +. 0.15))
      (fun () -> A.restart stack.agent)
  done;
  run_to stack 23.0;
  C.stop_health stack.controller;
  let log = C.recovery_log stack.controller in
  Alcotest.(check int) "ring capped at 64" 64 (List.length log);
  Alcotest.(check bool) "evictions counted" true
    (C.recovery_log_dropped stack.controller > 0);
  (* newest-first: the surviving entries are the most recent heals *)
  (match log with
  | newest :: _ ->
      Alcotest.(check bool) "newest entry is from a late cycle" true
        (newest.C.re_recovered_ns > Engine.sec 15.0)
  | [] -> Alcotest.fail "empty recovery log")

(* --- cluster: kill the primary, the standby takes over ------------------- *)

let cluster_failover_resumes_service () =
  let stack = Common.make_scallop ~seed:41 ~pair:Cl.default () in
  let cluster = Option.get stack.Common.cluster in
  let mid, _parts = Common.scallop_meeting stack ~participants:4 ~senders:2 () in
  Cl.start_health cluster;
  run_to stack 1.5;
  Alcotest.(check string) "primary acting" "ctl" (C.label (Cl.endpoint cluster));
  Cl.kill_primary cluster;
  run_to stack 3.0;
  Alcotest.(check int) "standby promoted once" 1 (Cl.promotions cluster);
  let ep = Cl.endpoint cluster in
  Alcotest.(check string) "endpoint is the old standby" "ctl1" (C.label ep);
  Alcotest.(check bool) "fence advanced past the dead primary's" true
    (C.fence ep >= 2);
  (* the killed instance refuses new intent *)
  Alcotest.check_raises "killed primary unavailable" C.Unavailable (fun () ->
      ignore (C.create_meeting (Cl.primary cluster)));
  (* service continues through the new primary: the rebuilt intent
     resolves the pre-failover meeting and participant ids *)
  let pids = C.meeting_participants ep mid in
  C.set_pair_target ep ~sender:(List.hd pids) ~receiver:(List.nth pids 2)
    Av1.Dd.DT_15fps;
  C.leave ep (List.nth pids 3);
  run_to stack 5.0;
  (* the old primary rejoins as a tailing standby *)
  Cl.restart_killed cluster;
  run_to stack 7.0;
  Cl.stop cluster;
  Alcotest.(check bool) "restarted instance tails as standby" true
    (C.role (Cl.primary cluster) = C.Standby);
  (match An.errors (An.check_cluster cluster) with
  | [] -> ()
  | fs ->
      Alcotest.failf "cluster invariants violated: %s"
        (String.concat "; " (List.map (fun f -> f.An.explanation) fs)));
  Alcotest.(check string) "rebuilt standby reproduces the acting intent"
    (C.intent_fingerprint ep)
    (C.intent_fingerprint (Cl.primary cluster));
  An.assert_clean ~what:"post cluster failover" ep

(* --- QCheck: crash + resync-from-intent == never crashed ---------------- *)

type op = Join of bool | Leave of int | Target of int * int * int

let op_to_string = function
  | Join s -> Printf.sprintf "Join(send=%b)" s
  | Leave k -> Printf.sprintf "Leave(%d)" k
  | Target (s, r, t) -> Printf.sprintf "Target(%d,%d,%d)" s r t

type plan = { ops : op list; crash_ms : int; down_ms : int }

let plan_to_string p =
  Printf.sprintf "{ops=[%s]; crash=%dms; down=%dms}"
    (String.concat "; " (List.map op_to_string p.ops))
    p.crash_ms p.down_ms

let plan_gen =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (2, map (fun b -> Join b) bool);
        (1, map (fun k -> Leave k) (int_bound 10));
        ( 3,
          map3
            (fun s r t -> Target (s, r, t))
            (int_bound 10) (int_bound 10) (int_bound 2) );
      ]
  in
  map3
    (fun ops crash_ms down_ms -> { ops; crash_ms; down_ms })
    (list_size (int_range 3 6) op)
    (int_range 1000 2500) (int_range 800 2000)

let plan_arb = QCheck.make ~print:plan_to_string plan_gen

(* Replay [plan.ops] at fixed virtual times against a fresh 3-party
   meeting; when [crash] is set the switch power-cycles mid-sequence,
   and [batch] selects the controller's flush policy ([false] flushes
   every op). Returns the canonical agent shadow after everything
   settles. *)
let execute ?batch plan ~crash =
  let stack = Common.make_scallop ~seed:11 ?batch () in
  let mid, parts = Common.scallop_meeting stack ~participants:3 ~senders:2 () in
  C.start_health stack.controller;
  let live = ref (List.map fst parts) in
  let senders = ref [ fst (List.hd parts); fst (List.nth parts 1) ] in
  let next_index = ref 10 in
  (* a blocking controller call pumps the engine through its retries, so a
     later op's timer can fire while an earlier op is still mid-call;
     serialize through a queue so ops always run whole and in order *)
  let pending = Queue.create () in
  let busy = ref false in
  let enqueue f =
    Queue.push f pending;
    if not !busy then begin
      busy := true;
      Fun.protect
        ~finally:(fun () -> busy := false)
        (fun () ->
          while not (Queue.is_empty pending) do
            (Queue.pop pending) ()
          done)
    end
  in
  List.iteri
    (fun i op ->
      Engine.at stack.engine
        ~time:(Engine.sec (0.8 +. (1.0 *. float_of_int i)))
        (fun () ->
          enqueue @@ fun () ->
          match op with
          | Join send ->
              incr next_index;
              let client =
                Common.add_client stack.engine stack.network stack.rng
                  ~index:!next_index ()
              in
              let pid = C.join stack.controller mid client ~send_media:send in
              live := !live @ [ pid ];
              if send then senders := !senders @ [ pid ]
          | Leave k ->
              if List.length !live > 1 then begin
                let pid = List.nth !live (k mod List.length !live) in
                C.leave stack.controller pid;
                live := List.filter (fun p -> p <> pid) !live;
                senders := List.filter (fun p -> p <> pid) !senders
              end
          | Target (s, r, t) -> (
              match List.filter (fun p -> List.mem p !live) !senders with
              | [] -> ()
              | ss -> (
                  let sender = List.nth ss (s mod List.length ss) in
                  match List.filter (fun p -> p <> sender) !live with
                  | [] -> ()
                  | rs ->
                      let receiver = List.nth rs (r mod List.length rs) in
                      C.set_pair_target stack.controller ~sender ~receiver
                        (Av1.Dd.target_of_index t)))))
    plan.ops;
  if crash then begin
    Engine.at stack.engine
      ~time:(Engine.ms plan.crash_ms)
      (fun () -> A.crash stack.agent);
    Engine.at stack.engine
      ~time:(Engine.ms (plan.crash_ms + plan.down_ms))
      (fun () -> A.restart stack.agent)
  end;
  run_to stack 10.0;
  C.stop_health stack.controller;
  An.assert_clean
    ~what:(if crash then "crashed run" else "baseline run")
    stack.controller;
  canon_agent stack.agent

let canon_to_string c =
  String.concat "\n"
    (List.map
       (fun (members, senders, streams) ->
         Printf.sprintf "members=%s senders=%s\n%s"
           (String.concat ","
              (List.map (fun (p, port) -> Printf.sprintf "%d@%d" p port) members))
           (String.concat "," (List.map string_of_int senders))
           (String.concat "\n"
              (List.map
                 (fun (up, s, v, a, rend, legs) ->
                   Printf.sprintf "  stream up=%d sender=%d v=%d a=%d rend=%d legs=[%s]"
                     up s v a (List.length rend)
                     (String.concat "; "
                        (List.map
                           (fun (port, r, ad, tgt) ->
                             Printf.sprintf "%d->%d ad=%b tgt=%s" port r ad
                               (match tgt with
                               | None -> "_"
                               | Some t -> string_of_float (Av1.Dd.fps_of_target t)))
                           legs)))
                 streams)))
       c)

let resync_equiv_prop =
  QCheck.Test.make ~count:4 ~name:"resync-from-intent == never-crashed" plan_arb
    (fun plan ->
      let crashed = execute plan ~crash:true in
      let baseline = execute plan ~crash:false in
      if crashed <> baseline then
        Printf.printf "--- crashed run:\n%s\n--- baseline run:\n%s\n"
          (canon_to_string crashed) (canon_to_string baseline);
      crashed = baseline)

(* The strongest form of the batching-equivalence claim: a batched run
   whose switch crashes mid-sequence (possibly mid-batch — the unacked
   batch's ops are skipped and the resync replays them from intent)
   must land on the same canonical agent state as a per-op run that
   never crashed at all. *)
(* Regression (found by the property above): a batched join whose flush
   straddles the switch's power-cycle. The heartbeat's first pong after
   the restart used to trigger the resync while the join's batch was
   still retrying; the replay recreated the meeting from intent and the
   batch's retransmit then landed on the healed agent and re-executed —
   duplicating the member and its legs. The heal now waits for a quiet
   channel. *)
let straddling_flush_does_not_double_execute () =
  let plan =
    { ops = [ Target (2, 5, 0); Target (9, 3, 2); Join false ];
      crash_ms = 2325; down_ms = 1064 }
  in
  let batched_crashed = execute plan ~crash:true in
  let baseline = execute plan ~crash:false ~batch:false in
  if batched_crashed <> baseline then
    Alcotest.failf "batched crashed run diverged:\n%s\n--- baseline:\n%s"
      (canon_to_string batched_crashed) (canon_to_string baseline)

(* Like [execute], but against the primary/standby cluster, and the
   fault is a controller kill instead of a switch crash: the primary is
   killed at [plan.crash_ms] (the beat timer promotes the standby) and
   restarted as a tailing standby [plan.down_ms] later. Ops follow
   {!Cl.endpoint}; one caught mid-failover raises [Unavailable] or
   [Deposed_primary] {e before} journaling anything and is re-queued at
   the front — submission order, and therefore every replayed
   identifier, stays deterministic. Returns the acting instance's
   intent fingerprint plus the canonical agent shadow. *)
let execute_cluster plan ~kill =
  let stack = Common.make_scallop ~seed:11 ~pair:Cl.default () in
  let cluster = Option.get stack.Common.cluster in
  let ctrl () = Cl.endpoint cluster in
  let mid, parts = Common.scallop_meeting stack ~participants:3 ~senders:2 () in
  Cl.start_health cluster;
  let live = ref (List.map fst parts) in
  let senders = ref [ fst (List.hd parts); fst (List.nth parts 1) ] in
  let next_index = ref 10 in
  let pending = ref [] in
  let busy = ref false in
  let rec drain () =
    match !pending with
    | [] -> ()
    | f :: rest -> (
        pending := rest;
        match f (ctrl ()) with
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
  List.iteri
    (fun i op ->
      Engine.at stack.engine
        ~time:(Engine.sec (0.8 +. (1.0 *. float_of_int i)))
        (fun () ->
          match op with
          | Join send ->
              (* the client is registered when the timer fires, outside
                 the retried closure: a retry after a failover re-issues
                 the join, never a second host registration *)
              incr next_index;
              let client =
                Common.add_client stack.engine stack.network stack.rng
                  ~index:!next_index ()
              in
              enqueue (fun ctrl ->
                  let pid = C.join ctrl mid client ~send_media:send in
                  live := !live @ [ pid ];
                  if send then senders := !senders @ [ pid ])
          | Leave k ->
              enqueue (fun ctrl ->
                  if List.length !live > 1 then begin
                    let pid = List.nth !live (k mod List.length !live) in
                    C.leave ctrl pid;
                    live := List.filter (fun p -> p <> pid) !live;
                    senders := List.filter (fun p -> p <> pid) !senders
                  end)
          | Target (s, r, t) ->
              enqueue (fun ctrl ->
                  match List.filter (fun p -> List.mem p !live) !senders with
                  | [] -> ()
                  | ss -> (
                      let sender = List.nth ss (s mod List.length ss) in
                      match List.filter (fun p -> p <> sender) !live with
                      | [] -> ()
                      | rs ->
                          let receiver = List.nth rs (r mod List.length rs) in
                          C.set_pair_target ctrl ~sender ~receiver
                            (Av1.Dd.target_of_index t)))))
    plan.ops;
  if kill then begin
    Engine.at stack.engine
      ~time:(Engine.ms plan.crash_ms)
      (fun () -> Cl.kill_primary cluster);
    Engine.at stack.engine
      ~time:(Engine.ms (plan.crash_ms + plan.down_ms))
      (fun () -> Cl.restart_killed cluster)
  end;
  run_to stack 10.0;
  Cl.stop cluster;
  let ep = ctrl () in
  An.assert_clean
    ~what:(if kill then "killed-primary run" else "never-killed run")
    ep;
  (match An.errors (An.check_cluster cluster) with
  | [] -> ()
  | fs ->
      Alcotest.failf "cluster invariants violated (%s): %s"
        (if kill then "killed" else "baseline")
        (String.concat "; " (List.map (fun f -> f.An.explanation) fs)));
  (C.intent_fingerprint ep, canon_agent stack.Common.agent)

let cluster_equiv_prop =
  QCheck.Test.make ~count:3
    ~name:"kill primary at any point + failover == never killed" plan_arb
    (fun plan ->
      let killed_fp, killed_agent = execute_cluster plan ~kill:true in
      let base_fp, base_agent = execute_cluster plan ~kill:false in
      if killed_fp <> base_fp then
        Printf.printf "--- killed-run intent:\n%s\n--- baseline intent:\n%s\n"
          killed_fp base_fp;
      if killed_agent <> base_agent then
        Printf.printf "--- killed-run agent:\n%s\n--- baseline agent:\n%s\n"
          (canon_to_string killed_agent)
          (canon_to_string base_agent);
      killed_fp = base_fp && killed_agent = base_agent)

let batched_equiv_prop =
  QCheck.Test.make ~count:3 ~name:"batched + crash mid-batch == per-op baseline"
    plan_arb
    (fun plan ->
      let batched_crashed = execute plan ~crash:true in
      let baseline = execute plan ~crash:false ~batch:false in
      if batched_crashed <> baseline then
        Printf.printf "--- batched crashed run:\n%s\n--- per-op baseline:\n%s\n"
          (canon_to_string batched_crashed) (canon_to_string baseline);
      batched_crashed = baseline)

let () =
  Alcotest.run "failover"
    [
      ( "recovery",
        [
          Alcotest.test_case "crash/restart resyncs from intent" `Quick
            crash_restart_resyncs;
          Alcotest.test_case "partition: media flows, one resync" `Quick
            partition_keeps_media_flowing;
          Alcotest.test_case "same-epoch return needs no repair" `Quick
            quiet_return_needs_no_repair;
          Alcotest.test_case "op during a resync is not lost" `Quick
            op_during_resync_is_not_lost;
          Alcotest.test_case "reconcile repairs live drift" `Quick
            reconcile_repairs_drift;
          Alcotest.test_case "resync replays a cascaded meeting" `Quick
            resync_replays_cascaded_meeting;
          Alcotest.test_case "restored instance retires relays in order" `Quick
            restored_controller_retires_relays_in_order;
          Alcotest.test_case "straddling flush never double-executes" `Quick
            straddling_flush_does_not_double_execute;
          Alcotest.test_case "flapping detector counts transitions" `Quick
            flapping_detector_counts_transitions;
          Alcotest.test_case "recovery log is a bounded ring" `Quick
            recovery_log_is_bounded;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "failover resumes service" `Quick
            cluster_failover_resumes_service;
        ] );
      ( "equivalence",
        [
          Fixed_seed.to_alcotest ~verbose:false resync_equiv_prop;
          Fixed_seed.to_alcotest ~verbose:false batched_equiv_prop;
          Fixed_seed.to_alcotest ~verbose:false cluster_equiv_prop;
        ] );
    ]
