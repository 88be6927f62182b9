(* Analysis-layer tests: clean scenarios produce no findings, every
   invariant class is detected when its state is deliberately corrupted
   (the mutation harness), teardown paths leak nothing, and random churn
   under control-plane faults stays verifiably consistent. *)

module An = Scallop_analysis
module C = Scallop.Controller
module A = Scallop.Switch_agent
module D = Scallop.Dataplane
module T = Scallop.Trees
module P = Tofino.Pre
module R = Tofino.Resources
module Engine = Netsim.Engine
module Network = Netsim.Network
module Link = Netsim.Link
module Rng = Scallop_util.Rng
module Addr = Scallop_util.Addr

let fast = { Link.default with rate_bps = infinity; propagation_ns = 100_000 }

type stack = {
  engine : Engine.t;
  rng : Rng.t;
  network : Network.t;
  controller : C.t;
}

let make ?(switches = 1) ?control ?(seed = 11) () =
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let network = Network.create engine (Rng.split rng) in
  let sw i =
    let ip = Addr.ip_of_string (Printf.sprintf "10.0.0.%d" (i + 1)) in
    Network.add_host network ~ip ~uplink:fast ~downlink:fast ();
    let dp = D.create engine network ~ip () in
    let agent = A.create engine dp () in
    (agent, dp)
  in
  let agents = List.init switches sw in
  let controller = C.create engine network (Rng.split rng) ~agents ?control () in
  { engine; rng; network; controller }

let client st idx =
  let ip = Addr.ip_of_string (Printf.sprintf "10.0.3.%d" (idx + 1)) in
  Network.add_host st.network ~ip ();
  Webrtc.Client.create st.engine st.network (Rng.split st.rng)
    (Webrtc.Client.default_config ~ip)

let run_for st seconds =
  Engine.run st.engine ~until:(Engine.now st.engine + Engine.sec seconds)

let errors_of st = An.errors (An.verify st.controller)

let check_baseline st =
  match errors_of st with
  | [] -> ()
  | errs -> Alcotest.failf "baseline scenario is dirty:\n%s" (An.report errs)

let expect kind findings =
  if not (List.exists (fun (f : An.finding) -> f.An.kind = kind) findings) then
    Alcotest.failf "expected a %s finding, got:\n%s" (An.kind_name kind)
      (if findings = [] then "(none)" else An.report findings)

(* One meeting on switch 0: 3 senders, 1 receiver, media flowing. *)
let scenario ?(participants = 4) ?(senders = 3) st =
  let mid = C.create_meeting st.controller in
  let pids =
    List.init participants (fun i ->
        C.join st.controller mid (client st i) ~send_media:(i < senders))
  in
  run_for st 1.0;
  (mid, pids)

let sw0 st = C.switch_agent st.controller 0

(* --- clean runs flag nothing ------------------------------------------------- *)

let clean_single_switch () =
  let st = make () in
  let _ = scenario st in
  match An.verify st.controller with
  | [] -> ()
  | fs -> Alcotest.failf "expected no findings:\n%s" (An.report fs)

let clean_two_party () =
  let st = make () in
  let _ = scenario ~participants:2 ~senders:2 st in
  check_baseline st;
  An.assert_clean st.controller

let clean_simulcast () =
  let st = make () in
  let mid = C.create_meeting st.controller in
  let _s = C.join ~simulcast:true st.controller mid (client st 0) ~send_media:true in
  let _r = C.join st.controller mid (client st 1) ~send_media:false in
  run_for st 1.0;
  An.assert_clean st.controller

(* --- mutation harness: every violation class is detected --------------------- *)

let mutation name expected mutate =
  Alcotest.test_case name `Quick (fun () ->
      let st = make () in
      let mid, pids = scenario st in
      check_baseline st;
      mutate st mid pids;
      expect expected (errors_of st))

(* A tree with at least two member nodes, from the live PRE. *)
let some_tree dp =
  let best = ref None in
  P.iter_trees (D.pre dp) (fun ~mgid ~nodes ->
      if !best = None && List.length nodes >= 2 then best := Some (mgid, nodes));
  match !best with
  | Some x -> x
  | None -> Alcotest.fail "scenario built no tree with two nodes"

let sender_port st pid =
  match C.participant_sender_info st.controller pid with
  | Some info -> info.C.egress_port
  | None -> Alcotest.fail "expected a sending participant"

let mutations =
  [
    mutation "duplicate RID" An.Duplicate_rid (fun st _ _ ->
        let _, dp = sw0 st in
        match some_tree dp with
        | _, a :: b :: _ -> P.Unsafe.set_node_rid (D.pre dp) b (P.node_rid (D.pre dp) a)
        | _ -> assert false);
    mutation "orphan L1 node" An.Orphan_l1_node (fun st _ _ ->
        let _, dp = sw0 st in
        ignore (P.create_l1_node (D.pre dp) ~rid:4242 ~ports:[ 4242 ] ()));
    mutation "dangling tree record" An.Dangling_tree_node (fun st _ _ ->
        let _, dp = sw0 st in
        let mgid, _ = some_tree dp in
        P.Unsafe.drop_tree_record (D.pre dp) mgid);
    mutation "self-prune mismatch" An.Self_prune_mismatch (fun st _ pids ->
        let _, dp = sw0 st in
        let port = sender_port st (List.hd pids) in
        (* repoint the sender's exclusion set at a port it does not use *)
        P.set_l2_xid_ports (D.pre dp) ~xid:port ~ports:[ port + 1000 ]);
    mutation "stray L2-XID" An.Xid_ports_invalid (fun st _ _ ->
        let _, dp = sw0 st in
        P.set_l2_xid_ports (D.pre dp) ~xid:424_242 ~ports:[ 9999 ]);
    mutation "member pruned out of its tree" An.Unreachable_leg (fun st _ _ ->
        let _, dp = sw0 st in
        let mgid, nodes = some_tree dp in
        P.remove_node_from_tree (D.pre dp) mgid (List.hd nodes));
    mutation "egress leg for a non-member" An.Orphan_replica (fun st _ _ ->
        let _, dp = sw0 st in
        let u = List.hd (D.uplinks_view dp) in
        D.register_leg dp ~receiver:555 ~video_ssrc:0x9999 ~audio_ssrc:0x999A
          ~dst:(Addr.v (Addr.ip_of_string "10.0.3.250") 5000)
          ~src_port:45_555 ~uplink_port:u.D.uv_port ~rewrite:None);
    mutation "dropped feedback rule" An.Dangling_feedback (fun st _ _ ->
        let _, dp = sw0 st in
        let leg = List.hd (D.legs_view dp) in
        D.Unsafe.drop_feedback_entry dp ~src_port:leg.D.lv_src_port);
    mutation "freed stream index still in use" An.Stream_index_corrupt (fun st _ _ ->
        let _, dp = sw0 st in
        match
          List.find_opt (fun (l : D.leg_view) -> l.D.lv_stream_index >= 0) (D.legs_view dp)
        with
        | Some l -> D.Unsafe.push_free_stream_index dp l.D.lv_stream_index
        | None -> Alcotest.fail "scenario built no rate-adapted leg");
    mutation "agent registration behind the controller's back" An.Intent_drift
      (fun st mid _ ->
        let agent, _ = sw0 st in
        A.register_participant agent
          ~meeting:(C.agent_meeting_id st.controller mid)
          ~participant:777 ~egress_port:777 ~sends:false);
    mutation "data-plane uplink dropped behind the agent's back" An.Shadow_drift
      (fun st _ _ ->
        let _, dp = sw0 st in
        let u = List.hd (D.uplinks_view dp) in
        D.unregister_uplink dp ~port:u.D.uv_port);
    mutation "data-plane leg dropped behind the agent's back" An.Shadow_drift
      (fun st _ _ ->
        let _, dp = sw0 st in
        let leg = List.hd (D.legs_view dp) in
        D.unregister_leg dp ~receiver:leg.D.lv_receiver ~video_ssrc:leg.D.lv_video_ssrc);
    mutation "poisoned PRE fan-out cache entry" An.Stale_pre_cache (fun st _ _ ->
        let _, dp = sw0 st in
        let mgid, _ = some_tree dp in
        (* an entry the flush-on-mutation discipline could never produce *)
        P.Unsafe.poison_cache (D.pre dp) ~mgid ~l1_xid:0 ~rid:424_242 ~l2_xid:0
          ~replicas:[ { P.rid = 424_242; port = 4242 } ]);
  ]

(* Pure-data invariants are exercised by tampering with the snapshot
   records themselves (the live tables enforce capacity, so an overflowing
   state can only be expressed, not reached). *)

let table_overflow_flagged () =
  let st = make () in
  let _ = scenario st in
  let snap = An.snapshot st.controller in
  let sw = List.hd snap.An.snap_switches in
  let sw' =
    {
      sw with
      An.sw_tables = [ { D.tbl_name = "uplink"; tbl_size = 5_000; tbl_capacity = 4_096 } ];
    }
  in
  expect An.Table_overflow
    (An.errors (An.check { snap with An.snap_switches = [ sw' ] }))

let near_capacity_warns () =
  let st = make () in
  let _ = scenario st in
  let snap = An.snapshot st.controller in
  let sw = List.hd snap.An.snap_switches in
  let sw' =
    {
      sw with
      An.sw_tables = [ { D.tbl_name = "uplink"; tbl_size = 4_000; tbl_capacity = 4_096 } ];
    }
  in
  let findings = An.check { snap with An.snap_switches = [ sw' ] } in
  expect An.Table_overflow findings;
  Alcotest.(check int) "warning, not error" 0 (List.length (An.errors findings))

let resource_budget_flagged () =
  let st = make () in
  let _ = scenario st in
  let snap = An.snapshot st.controller in
  expect An.Resource_budget
    (An.errors (An.check ~totals:{ R.tofino2 with R.sram_blocks = 1 } snap))

(* --- teardown leaks ----------------------------------------------------------- *)

(* Join, share, leave — repeatedly — and require the final snapshot to be
   literally empty: no L1 nodes, no exclusion sets, no uplinks, no legs,
   no feedback rules. Before the teardown fixes, L2-XIDs and relay
   receivers survived every round. *)
let churn_leaves_nothing () =
  let st = make ~switches:2 () in
  let mid = C.create_meeting st.controller in
  for round = 0 to 2 do
    let base = round * 6 in
    let pids =
      List.init 6 (fun i ->
          C.join ~home:(i mod 2) st.controller mid
            (client st (base + i))
            ~send_media:(i < 4))
    in
    run_for st 0.5;
    C.start_screen_share st.controller (List.hd pids);
    run_for st 0.5;
    An.assert_clean ~what:(Printf.sprintf "round %d" round) st.controller;
    C.stop_screen_share st.controller (List.hd pids);
    List.iter (C.leave st.controller) pids;
    run_for st 0.2;
    An.assert_clean ~what:(Printf.sprintf "round %d teardown" round) st.controller
  done;
  for idx = 0 to 1 do
    let _, dp = C.switch_agent st.controller idx in
    Alcotest.(check int)
      (Printf.sprintf "sw%d: no leaked L1 nodes" idx)
      0
      (P.l1_nodes_used (D.pre dp));
    Alcotest.(check int)
      (Printf.sprintf "sw%d: no uplinks" idx)
      0
      (List.length (D.uplinks_view dp));
    Alcotest.(check int)
      (Printf.sprintf "sw%d: no legs" idx)
      0
      (List.length (D.legs_view dp));
    Alcotest.(check int)
      (Printf.sprintf "sw%d: no feedback rules" idx)
      0
      (List.length (D.feedback_view dp));
    Alcotest.(check int)
      (Printf.sprintf "sw%d: no L2-XIDs" idx)
      0
      (List.length (T.l2_xid_refs (D.trees dp)));
    let xids = ref 0 in
    P.iter_l2_xids (D.pre dp) (fun ~xid:_ ~ports:_ -> incr xids);
    Alcotest.(check int) (Printf.sprintf "sw%d: PRE exclusion sets released" idx) 0 !xids
  done

(* Participant-index recycling inside a tree slot: before the free-list
   fix, 1024 cumulative (re)joins exhausted the slot's RID range. *)
let participant_index_recycled () =
  let pre = P.create () in
  let t = T.create pre in
  let h = T.register_meeting t T.Nra ~participants:[ (0, 100) ] ~senders:[ 0 ] in
  for i = 1 to 3_000 do
    T.add_participant t h (100_000 + i, 200 + (i mod 50)) ~sends:false;
    T.remove_participant t h (100_000 + i)
  done;
  Alcotest.(check int) "only the stable member's node remains" 1 (P.l1_nodes_used pre);
  Alcotest.(check int) "one exclusion set" 1 (List.length (T.l2_xid_refs t))

(* Under RA-SR a sender's tag — the RID range and L1-XID its nodes carry —
   is its position in the pair. Removing the pair's first sender used to
   compact the list, shifting the survivor to position 1 while its nodes
   stayed tagged 2: its own route then excluded every one of its branches
   and all receivers went dark. (Found by the churn-under-faults test.) *)
let ra_sr_sender_removal_keeps_routing () =
  let pre = P.create () in
  let t = T.create pre in
  let h =
    T.register_meeting t T.Ra_sr
      ~participants:[ (1, 101); (2, 102); (3, 103) ]
      ~senders:[ 1; 2 ]
  in
  T.remove_participant t h 1;
  match T.route_media t h ~sender:2 ~layer:Av1.Dd.T0 with
  | T.Replicate { mgid; l1_xid; rid; l2_xid } ->
      let receivers =
        P.replicate pre ~mgid ~l1_xid ~rid ~l2_xid
        |> List.map (fun (r : P.replica) -> T.receiver_of_replica t h ~mgid ~rid:r.P.rid)
        |> List.filter (fun pid -> pid >= 0)
        |> List.sort compare
      in
      Alcotest.(check (list int)) "survivor still reaches receiver" [ 3 ] receivers
  | _ -> Alcotest.fail "expected a replicate route"

(* --- random churn under control-plane faults --------------------------------- *)

let random_churn_under_faults () =
  let control = Scallop.Rpc_transport.degraded ~loss:0.2 ~rtt_ns:(Engine.ms 2) () in
  let st = make ~switches:2 ~control ~seed:5 () in
  let rng = Rng.create 77 in
  let mid = C.create_meeting st.controller in
  let next_idx = ref 0 in
  let live = ref [] in
  let sharing = ref None in
  for step = 0 to 29 do
    let r = Rng.int rng 100 in
    (if r < 45 || !live = [] then begin
       let idx = !next_idx in
       incr next_idx;
       let pid =
         C.join ~home:(idx mod 2) st.controller mid (client st idx)
           ~send_media:(idx mod 3 <> 2)
       in
       live := !live @ [ pid ]
     end
     else if r < 70 then begin
       match !live with
       | pid :: rest ->
           if !sharing = Some pid then sharing := None;
           C.leave st.controller pid;
           live := rest
       | [] -> ()
     end
     else if r < 85 then begin
       match (!sharing, !live) with
       | None, pid :: _ ->
           C.start_screen_share st.controller pid;
           sharing := Some pid
       | Some pid, _ ->
           C.stop_screen_share st.controller pid;
           sharing := None
       | _ -> ()
     end
     else
       match !live with
       | a :: b :: _ -> (
           try C.set_pair_target st.controller ~sender:a ~receiver:b Av1.Dd.DT_7_5fps
           with Invalid_argument _ -> ())
       | _ -> ());
    run_for st 0.3;
    match errors_of st with
    | [] -> ()
    | errs -> Alcotest.failf "after step %d:\n%s" step (An.report errs)
  done;
  List.iter (C.leave st.controller) !live;
  run_for st 0.2;
  An.assert_clean ~what:"after final teardown" st.controller

(* --- suite -------------------------------------------------------------------- *)

let () =
  Alcotest.run "analysis"
    [
      ( "clean",
        [
          Alcotest.test_case "single switch meeting" `Quick clean_single_switch;
          Alcotest.test_case "two-party meeting" `Quick clean_two_party;
          Alcotest.test_case "simulcast meeting" `Quick clean_simulcast;
        ] );
      ("mutations", mutations);
      ( "snapshot tampering",
        [
          Alcotest.test_case "table overflow" `Quick table_overflow_flagged;
          Alcotest.test_case "near capacity warns" `Quick near_capacity_warns;
          Alcotest.test_case "shrunken chip budget" `Quick resource_budget_flagged;
        ] );
      ( "leaks",
        [
          Alcotest.test_case "churn leaves nothing" `Quick churn_leaves_nothing;
          Alcotest.test_case "participant index recycled" `Quick participant_index_recycled;
          Alcotest.test_case "RA-SR sender removal keeps routing" `Quick
            ra_sr_sender_removal_keeps_routing;
        ] );
      ( "faults",
        [
          Alcotest.test_case "random churn under RPC loss" `Quick random_churn_under_faults;
        ] );
    ]
