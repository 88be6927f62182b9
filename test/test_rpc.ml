(* Control-plane RPC layer tests: wire codec, timeout/retry/backoff,
   duplicate-delivery idempotence, give-up surfacing at the controller,
   and rpc_calls as an honest count of messages on the wire. *)

module Addr = Scallop_util.Addr
module Rng = Scallop_util.Rng
module Engine = Netsim.Engine
module Network = Netsim.Network
module Link = Netsim.Link
module Rpc = Scallop.Rpc
module T = Scallop.Rpc_transport
module C = Scallop.Controller
module Metrics = Scallop_obs.Metrics

(* --- codec ----------------------------------------------------------------- *)

let all_requests =
  [
    Rpc.New_meeting { two_party = true };
    Rpc.Register_participant { meeting = 3; participant = 7; egress_port = 140; sends = false };
    Rpc.Register_uplink
      {
        meeting = 0; sender = 1; port = 130; video_ssrc = 0xAA; audio_ssrc = 0xBB;
        full_bitrate = 2_500_000; renditions = [| (9, 2_500_000); (10, 600_000) |];
      };
    Rpc.Register_leg
      {
        meeting = 2; sender = 4; uplink_port = Some 131; receiver = 5; leg_port = 150;
        dst = Addr.v (Addr.ip_of_string "10.0.3.4") 4242; adaptive = true;
      };
    Rpc.Register_leg
      {
        meeting = 2; sender = 4; uplink_port = None; receiver = 6; leg_port = 151;
        dst = Addr.v (Addr.ip_of_string "10.0.3.5") 4242; adaptive = false;
      };
    Rpc.Remove_participant { meeting = 1; participant = 2 };
    Rpc.Unregister_uplink { meeting = 1; port = 133 };
    Rpc.Set_pair_target { meeting = 0; sender = 1; receiver = 2; target = Av1.Dd.DT_7_5fps };
    Rpc.Ping;
    Rpc.Reset;
  ]

let codec_roundtrip () =
  List.iteri
    (fun i request ->
      let msg = Rpc.Request { seq = 100 + i; request } in
      Alcotest.(check bool)
        (Rpc.request_name request) true
        (Rpc.decode (Rpc.encode msg) = msg))
    all_requests;
  List.iter
    (fun reply ->
      let msg = Rpc.Reply { seq = 9; reply } in
      Alcotest.(check bool) "reply roundtrip" true (Rpc.decode (Rpc.encode msg) = msg))
    [
      Rpc.Meeting_created { meeting = 12 };
      Rpc.Ack;
      Rpc.Error "no such meeting";
      Rpc.Pong { epoch = 3 };
    ]

(* --- exact wire text -----------------------------------------------------------

   The encoder's bytes for every request of [all_requests] (seq 100
   onwards), a nested batch, a fenced batch, and a batch reply whose
   [Error] texts hold runs of spaces, leading and trailing ones included
   (one of them empty). *)

let wire_texts =
  List.combine
    (List.mapi (fun i request -> Rpc.Request { seq = 100 + i; request }) all_requests)
    [
      "req 100 new-meeting 1";
      "req 101 register-participant 3 7 140 0";
      "req 102 register-uplink 0 1 130 170 187 2500000 2 9 2500000 10 600000";
      "req 103 register-leg 2 4 131 5 150 167772932 4242 1";
      "req 104 register-leg 2 4 -1 6 151 167772933 4242 0";
      "req 105 remove-participant 1 2";
      "req 106 unregister-uplink 1 133";
      "req 107 set-pair-target 0 1 2 0";
      "req 108 ping";
      "req 109 reset";
    ]
  @ [
    ( Rpc.Request
        {
          seq = 7;
          request =
            Rpc.Batch
              [
                Rpc.Ping;
                Rpc.Batch [ Rpc.Remove_participant { meeting = 1; participant = 2 }; Rpc.Reset ];
                Rpc.Set_pair_target
                  { meeting = 4; sender = 5; receiver = 6; target = Av1.Dd.DT_30fps };
              ];
        },
      "req 7 batch 3 1 ping 8 batch 2 3 remove-participant 1 2 1 reset 5 set-pair-target 4 5 6 2"
    );
    ( Rpc.Request
        {
          seq = 8;
          request =
            Rpc.Fenced
              {
                fence = 3;
                op =
                  Rpc.Batch
                    [
                      Rpc.New_meeting { two_party = false };
                      Rpc.Remove_participant { meeting = 1; participant = 2 };
                    ];
              };
        },
      "req 8 fenced 3 batch 2 2 new-meeting 0 3 remove-participant 1 2" );
    ( Rpc.Reply
        {
          seq = 9;
          reply =
            Rpc.Batch_reply
              [
                Rpc.Meeting_created { meeting = 12 };
                Rpc.Error " no  such meeting ";
                Rpc.Ack;
                Rpc.Batch_reply [ Rpc.Error ""; Rpc.Stale_fence { fence = 4 } ];
              ];
        },
      "rep 9 batch-reply 4 2 meeting-created 12 7 error  no  such meeting  1 ack 8 \
       batch-reply 2 2 error  2 stale-fence 4" );
  ]

let codec_wire_text () =
  List.iter
    (fun (msg, text) ->
      Alcotest.(check string) text text (Bytes.to_string (Rpc.encode msg));
      Alcotest.(check bool) ("parses back " ^ text) true (Rpc.decode (Bytes.of_string text) = msg))
    wire_texts

let codec_rejects_garbage () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("reject " ^ s) true
        (try
           let _ = Rpc.decode (Bytes.of_string s) in
           false
         with Rtp.Wire.Parse_error _ -> true))
    [
      "";
      "nonsense";
      "req x new-meeting 0";
      "req 1 new-meeting";
      "rep 1 bogus";
      (* decode target indices out of range, bare and inside a batch or a
         fence *)
      "req 1 set-pair-target 0 1 2 7";
      "req 1 set-pair-target 0 1 2 -1";
      "req 1 batch 1 5 set-pair-target 0 1 2 7";
      "req 1 fenced 2 set-pair-target 0 1 2 7";
    ]

(* --- raw client/server harness --------------------------------------------- *)

let harness ?(config = T.default) ?on_request () =
  let engine = Engine.create () in
  let rng = Rng.create 5 in
  let executed = ref 0 in
  let server =
    T.Server.create engine
      ~handler:(fun req ->
        incr executed;
        Option.iter (fun f -> f req) on_request;
        match req with
        | Rpc.New_meeting _ -> Rpc.Meeting_created { meeting = !executed }
        | _ -> Rpc.Ack)
      ()
  in
  let client =
    T.Client.connect engine rng ~config
      ~local:(Addr.v (Addr.ip_of_string "10.255.0.1") 6633)
      ~remote:(Addr.v (Addr.ip_of_string "10.0.0.1") 6633)
      server
  in
  (engine, server, client, executed)

(* the harness's registry series: its client is [client="ctl"], its
   server [switch="agent"] *)
let client_count what = Metrics.read ~labels:[ ("client", "ctl") ] ("scallop_rpc_" ^ what)
let server_count name = Metrics.read ~labels:[ ("switch", "agent") ] name

let lossy_config = { T.default with T.timeout_ns = Engine.ms 10 }

let retry_after_timeout () =
  let engine, _, client, executed = harness ~config:lossy_config () in
  (* drop the first two attempts; the third gets through *)
  T.Client.set_request_fault client
    (Some (fun ~seq:_ ~attempt _ -> if attempt < 2 then T.Drop else T.Pass));
  let reply = T.Client.call client (Rpc.New_meeting { two_party = false }) in
  Alcotest.(check bool) "reply" true (reply = Ok (Rpc.Meeting_created { meeting = 1 }));
  Alcotest.(check int) "executed once" 1 !executed;
  Alcotest.(check int) "two retries" 2 (client_count "retries");
  Alcotest.(check int) "no failures" 0 (client_count "failures");
  (* the retry timers actually waited: 10 ms + 20 ms of backoff passed *)
  Alcotest.(check bool) "time advanced" true (Engine.now engine >= Engine.ms 30);
  Alcotest.(check int) "server saw one" 1 (server_count "scallop_agent_rpc_calls")

let duplicates_execute_once () =
  let engine, _, client, executed = harness () in
  T.Client.set_request_fault client (Some (fun ~seq:_ ~attempt:_ _ -> T.Duplicate));
  for i = 0 to 4 do
    let reply =
      T.Client.call client (Rpc.Remove_participant { meeting = 0; participant = i })
    in
    Alcotest.(check bool) "acked" true (reply = Ok Rpc.Ack)
  done;
  Alcotest.(check int) "each executed once" 5 !executed;
  (* the last duplicate reply is still in flight when its call settles *)
  while Engine.step engine do () done;
  Alcotest.(check int) "wire saw doubles" 10 (server_count "scallop_agent_rpc_calls");
  Alcotest.(check int) "replayed from cache" 5 (server_count "scallop_rpc_server_replayed");
  Alcotest.(check int) "stale second replies" 5 (client_count "stale_replies")

let delayed_reply_is_retried_then_reconciled () =
  (* the reply to attempt 0 is delayed past the timeout: the client
     retries, the server replays, and the late original is ignored *)
  let _, server, client, executed = harness ~config:lossy_config () in
  let first = ref true in
  T.Server.set_reply_fault server
    (Some
       (fun ~seq:_ _ ->
         if !first then begin
           first := false;
           T.Delay (Engine.ms 15)
         end
         else T.Pass));
  let reply = T.Client.call client (Rpc.New_meeting { two_party = false }) in
  Alcotest.(check bool) "reply" true (reply = Ok (Rpc.Meeting_created { meeting = 1 }));
  Alcotest.(check int) "executed once" 1 !executed;
  Alcotest.(check int) "one retry" 1 (client_count "retries");
  Alcotest.(check int) "replayed once" 1 (server_count "scallop_rpc_server_replayed")

let gives_up_after_max_retries () =
  let config = { lossy_config with T.max_retries = 3 } in
  let _, _, client, executed = harness ~config () in
  T.Client.set_request_fault client (Some (fun ~seq:_ ~attempt:_ _ -> T.Drop));
  (* the typed surface: [call] returns the error instead of raising *)
  Alcotest.(check bool) "typed error" true
    (T.Client.call client (Rpc.New_meeting { two_party = false }) = Error (`Gave_up 4));
  Alcotest.(check int) "never executed" 0 !executed;
  Alcotest.(check int) "failures counted" 1 (client_count "failures");
  Alcotest.(check int) "nothing on the wire" 0 (server_count "scallop_agent_rpc_calls")

(* A datagram that does not decode is counted and dropped; the server
   goes on answering. *)
let malformed_request_is_counted () =
  let engine, _, client, executed = harness () in
  let decode_errors () = server_count "scallop_rpc_server_decode_errors" in
  let before = decode_errors () in
  Netsim.Control_channel.send_fwd (T.Client.channel client)
    (Netsim.Dgram.v ~src:(Addr.v 1 1) ~dst:(Addr.v 2 2)
       (Bytes.of_string "req 1 set-pair-target 0 1 2 7"));
  while Engine.step engine do () done;
  Alcotest.(check int) "decode error counted" (before + 1) (decode_errors ());
  Alcotest.(check int) "nothing executed" 0 !executed;
  let reply = T.Client.call client (Rpc.New_meeting { two_party = false }) in
  Alcotest.(check bool) "next request answered" true
    (reply = Ok (Rpc.Meeting_created { meeting = 1 }));
  Alcotest.(check int) "next request executed" 1 !executed

(* --- through the controller ------------------------------------------------ *)

let fast = { Link.default with rate_bps = infinity; propagation_ns = 100_000 }

let make_stack ?control ?batch ~seed () =
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let network = Network.create engine (Rng.split rng) in
  let ip = Addr.ip_of_string "10.0.0.1" in
  Network.add_host network ~ip ~uplink:fast ~downlink:fast ();
  let dp = Scallop.Dataplane.create engine network ~ip () in
  let agent = Scallop.Switch_agent.create engine dp () in
  let controller =
    C.create engine network (Rng.split rng) ~agents:[ (agent, dp) ] ?control ?batch ()
  in
  (engine, network, rng, agent, controller)

(* the latest [make_stack] world's controller-side count on its one
   control channel ([client="sw0"]) *)
let ctrl_count what = Metrics.read ~labels:[ ("client", "sw0") ] ("scallop_rpc_" ^ what)

let join_n (engine, network, rng, _agent, controller) n =
  let mid = C.create_meeting controller in
  let pids =
    List.init n (fun i ->
        let ip = Addr.ip_of_string (Printf.sprintf "10.0.7.%d" (i + 1)) in
        Network.add_host network ~ip ();
        let client =
          Webrtc.Client.create engine network (Rng.split rng)
            (Webrtc.Client.default_config ~ip)
        in
        C.join controller mid client ~send_media:true)
  in
  (mid, pids)

let rpc_calls_count_wire_messages () =
  (* flush every op: one wire request per agent op *)
  let ((_, _, _, _, controller) as stack) = make_stack ~seed:11 ~batch:false () in
  let mid, pids = join_n stack 3 in
  C.start_screen_share controller (List.hd pids);
  C.leave controller (List.nth pids 2);
  let wire = Link.delivered (T.Client.request_link (C.control_channel controller 0)) in
  let agent_count = Metrics.read ~labels:[ ("switch", "sw0") ] "scallop_agent_rpc_calls" in
  Alcotest.(check bool) "some rpcs happened" true (wire > 10);
  Alcotest.(check int) "agent count = link deliveries" wire agent_count;
  Alcotest.(check int) "controller sent as many" wire (ctrl_count "wire_requests");
  Alcotest.(check int) "members tracked" 2 (List.length (C.meeting_participants controller mid))

let ideal_channel_is_free () =
  let ((engine, _, _, _, _) as stack) = make_stack ~seed:12 () in
  let _ = join_n stack 4 in
  Alcotest.(check int) "no virtual time spent on control" 0 (Engine.now engine)

let lossy_control = { (T.degraded ~loss:0.25 ~rtt_ns:(Engine.ms 20) ()) with T.max_retries = 12 }

let lossy_join_converges_to_same_state () =
  let ((_, _, _, agent_a, ctrl_a) as clean) = make_stack ~seed:13 () in
  let mid_a, _ = join_n clean 4 in
  let ((engine_b, _, _, agent_b, ctrl_b) as lossy) =
    make_stack ~seed:13 ~control:lossy_control ()
  in
  let mid_b, _ = join_n lossy 4 in
  Alcotest.(check bool) "loss forced retries" true (ctrl_count "retries" > 0);
  Alcotest.(check int) "every call completed" 0 (ctrl_count "failures");
  Alcotest.(check bool) "retries cost virtual time" true (Engine.now engine_b > 0);
  (* the replay cache kept retried operations idempotent: agent state
     matches the run with a perfect control channel *)
  let amid_a = C.agent_meeting_id ctrl_a mid_a in
  let amid_b = C.agent_meeting_id ctrl_b mid_b in
  Alcotest.(check (list int)) "same members"
    (Scallop.Switch_agent.meeting_members agent_a amid_a)
    (Scallop.Switch_agent.meeting_members agent_b amid_b);
  Alcotest.(check bool) "same design" true
    (Scallop.Switch_agent.meeting_design agent_a amid_a
    = Scallop.Switch_agent.meeting_design agent_b amid_b)

let dead_channel_surfaces_as_controller_error () =
  let ((_, _, _, _, controller) as stack) = make_stack ~seed:14 () in
  let _ = join_n stack 2 in
  let rpc = C.control_channel controller 0 in
  T.Client.set_request_fault rpc (Some (fun ~seq:_ ~attempt:_ _ -> T.Drop));
  Alcotest.(check bool) "join times out" true
    (try
       let _ = join_n stack 1 in
       false
     with T.Timed_out _ -> true)

(* --- QCheck: the whole vocabulary round-trips, batches included ------------ *)

let gen_target =
  QCheck.Gen.oneofl [ Av1.Dd.DT_7_5fps; Av1.Dd.DT_15fps; Av1.Dd.DT_30fps ]

let gen_base_request =
  let open QCheck.Gen in
  let i = int_bound 100_000 in
  oneof
    [
      map (fun two_party -> Rpc.New_meeting { two_party }) bool;
      map
        (fun ((meeting, participant), (egress_port, sends)) ->
          Rpc.Register_participant { meeting; participant; egress_port; sends })
        (pair (pair i i) (pair i bool));
      map
        (fun ((meeting, sender, port), (video_ssrc, audio_ssrc, full_bitrate), rend) ->
          Rpc.Register_uplink
            {
              meeting; sender; port; video_ssrc; audio_ssrc; full_bitrate;
              renditions = Array.of_list rend;
            })
        (triple (triple i i i) (triple i i i) (list_size (int_bound 3) (pair i i)));
      map
        (fun ((meeting, sender, up), (receiver, leg_port), ((ip, port), adaptive)) ->
          Rpc.Register_leg
            {
              meeting; sender;
              uplink_port = (if up = 0 then None else Some up);
              receiver; leg_port;
              dst = Addr.v ip port;
              adaptive;
            })
        (triple (triple i i (int_bound 5)) (pair i i)
           (pair (pair i (int_bound 65535)) bool));
      map
        (fun (meeting, participant) -> Rpc.Remove_participant { meeting; participant })
        (pair i i);
      map (fun (meeting, port) -> Rpc.Unregister_uplink { meeting; port }) (pair i i);
      map
        (fun ((meeting, sender, receiver), target) ->
          Rpc.Set_pair_target { meeting; sender; receiver; target })
        (pair (triple i i i) gen_target);
      return Rpc.Ping;
      return Rpc.Reset;
    ]

(* one level of nesting is enough to exercise the recursive frame codec;
   empty batches are generated on purpose *)
let gen_request =
  let open QCheck.Gen in
  let batch g = map (fun ops -> Rpc.Batch ops) (list_size (int_bound 4) g) in
  oneof
    [
      gen_base_request;
      batch gen_base_request;
      batch (oneof [ gen_base_request; batch gen_base_request ]);
    ]

(* error text is free-form: spaces, empty strings, even leading/trailing
   runs of spaces must survive the space-separated wire format *)
let gen_error_msg =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'e'; 'r'; ' '; ' '; '0'; '-'; ':' ])
      (int_bound 16))

let gen_base_reply =
  let open QCheck.Gen in
  oneof
    [
      map (fun meeting -> Rpc.Meeting_created { meeting }) (int_bound 100_000);
      return Rpc.Ack;
      map (fun epoch -> Rpc.Pong { epoch }) (int_bound 1000);
      map (fun msg -> Rpc.Error msg) gen_error_msg;
    ]

let gen_reply =
  let open QCheck.Gen in
  let batch g = map (fun rs -> Rpc.Batch_reply rs) (list_size (int_bound 4) g) in
  oneof
    [
      gen_base_reply;
      batch gen_base_reply;
      batch (oneof [ gen_base_reply; batch gen_base_reply ]);
    ]

let request_roundtrip_prop =
  QCheck.Test.make ~count:500 ~name:"request roundtrip (incl. nested batches)"
    (QCheck.make
       ~print:(fun request ->
         Bytes.to_string (Rpc.encode (Rpc.Request { seq = 1; request })))
       gen_request)
    (fun request ->
      let msg = Rpc.Request { seq = 1; request } in
      Rpc.decode (Rpc.encode msg) = msg)

let reply_roundtrip_prop =
  QCheck.Test.make ~count:500
    ~name:"reply roundtrip (incl. batch replies and spaced errors)"
    (QCheck.make
       ~print:(fun reply -> Bytes.to_string (Rpc.encode (Rpc.Reply { seq = 2; reply })))
       gen_reply)
    (fun reply ->
      let msg = Rpc.Reply { seq = 2; reply } in
      Rpc.decode (Rpc.encode msg) = msg)

(* --- batch dispatch on the agent ------------------------------------------- *)

let batch_executes_in_order_with_error_isolation () =
  let _, _, _, agent, _ = make_stack ~seed:21 () in
  let reg participant meeting =
    Rpc.Register_participant { meeting; participant; egress_port = 140 + participant; sends = false }
  in
  (* op 3 targets a meeting that does not exist: its slot must carry the
     error while ops 1-2 and 4 still execute, in list order *)
  match
    Scallop.Switch_agent.dispatch agent
      (Rpc.Batch [ Rpc.New_meeting { two_party = false }; reg 1 0; reg 2 777; reg 3 0 ])
  with
  | Rpc.Batch_reply
      [ Rpc.Meeting_created { meeting }; Rpc.Ack; Rpc.Error _; Rpc.Ack ] ->
      Alcotest.(check (list int))
        "ops around the failed slot landed" [ 1; 3 ]
        (List.sort compare (Scallop.Switch_agent.meeting_members agent meeting))
  | _ -> Alcotest.fail "expected [Meeting_created; Ack; Error; Ack]"

(* --- nested blocking calls ------------------------------------------------- *)

(* Twelve engine events at the same instant each make a blocking call.
   The first call's pump runs the second event, whose call pumps the
   third, and so on: all twelve are on the wire at once, nested, and
   each must settle with its own reply. *)
let nested_calls_all_go_on_the_wire () =
  let engine, server, client, executed = harness () in
  let n = 12 in
  let results = Array.make n None in
  let peak = ref 0 in
  for i = 0 to n - 1 do
    Engine.schedule engine ~after:0 (fun () ->
        let r =
          T.Client.call client (Rpc.Remove_participant { meeting = 0; participant = i })
        in
        results.(i) <- Some r)
  done;
  T.Server.set_reply_fault server
    (Some
       (fun ~seq:_ _ ->
         peak := max !peak (T.Client.in_flight client);
         T.Pass));
  Engine.run engine;
  Array.iteri
    (fun i r ->
      Alcotest.(check bool) (Printf.sprintf "call %d acked" i) true (r = Some (Ok Rpc.Ack)))
    results;
  Alcotest.(check int) "each executed once" n !executed;
  Alcotest.(check int) "executions = requests" n (server_count "scallop_rpc_server_executed");
  Alcotest.(check int) "all twelve in flight at the deepest nesting" n !peak;
  Alcotest.(check int) "in-flight drained" 0 (T.Client.in_flight client)

(* --- QCheck-adjacent equivalence: batched controller == per-op ------------- *)

let churn stack =
  let _, _, _, _, controller = stack in
  let mid, pids = join_n stack 4 in
  C.start_screen_share controller (List.hd pids);
  C.set_pair_target controller ~sender:(List.hd pids) ~receiver:(List.nth pids 2)
    Av1.Dd.DT_15fps;
  C.stop_screen_share controller (List.hd pids);
  C.leave controller (List.nth pids 3);
  mid

let batched_churn_matches_per_op () =
  let ((_, _, _, agent_a, ctrl_a) as per_op) =
    make_stack ~seed:15 ~control:lossy_control ~batch:false ()
  in
  let mid_a = churn per_op in
  (* the batched world replaces the per-op world's series: read them first *)
  let wire_a = ctrl_count "wire_requests" and failures_a = ctrl_count "failures" in
  let ((_, _, _, agent_b, ctrl_b) as batched) =
    make_stack ~seed:15 ~control:lossy_control ~batch:true ()
  in
  let mid_b = churn batched in
  let batches = ctrl_count "batch_flushes" in
  Alcotest.(check bool) "batches flowed" true (batches > 0);
  Alcotest.(check bool) "each batch carried >1 op on average" true
    (ctrl_count "batched_ops" > batches);
  Alcotest.(check bool) "batching cut wire requests" true
    (ctrl_count "wire_requests" < wire_a);
  Alcotest.(check int) "no failures either way" 0 (failures_a + ctrl_count "failures");
  let amid_a = C.agent_meeting_id ctrl_a mid_a in
  let amid_b = C.agent_meeting_id ctrl_b mid_b in
  Alcotest.(check (list int)) "same members"
    (Scallop.Switch_agent.meeting_members agent_a amid_a)
    (Scallop.Switch_agent.meeting_members agent_b amid_b);
  Alcotest.(check bool) "same design" true
    (Scallop.Switch_agent.meeting_design agent_a amid_a
    = Scallop.Switch_agent.meeting_design agent_b amid_b)

(* Every controller fences its wire ops, so the flush reaches the
   transport as [Fenced { op = Batch _ }]: the batch counters must look
   inside the fence. *)
let fenced_batch_is_counted () =
  let ((_, _, _, _, controller) as stack) = make_stack ~seed:16 () in
  let before = ctrl_count "batch_flushes" in
  let _ = join_n stack 1 in
  Alcotest.(check bool) "journaled controller" true (C.journal controller <> None);
  Alcotest.(check int) "one join, one flush" (before + 1) (ctrl_count "batch_flushes");
  Alcotest.(check bool) "ops counted inside the fenced batch" true
    (ctrl_count "batched_ops" >= 1)

let () =
  Alcotest.run "rpc"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick codec_roundtrip;
          Alcotest.test_case "wire text" `Quick codec_wire_text;
          Alcotest.test_case "garbage" `Quick codec_rejects_garbage;
          Fixed_seed.to_alcotest ~verbose:false request_roundtrip_prop;
          Fixed_seed.to_alcotest ~verbose:false reply_roundtrip_prop;
        ] );
      ( "transport",
        [
          Alcotest.test_case "retry after timeout" `Quick retry_after_timeout;
          Alcotest.test_case "duplicates execute once" `Quick duplicates_execute_once;
          Alcotest.test_case "delayed reply" `Quick delayed_reply_is_retried_then_reconciled;
          Alcotest.test_case "give up" `Quick gives_up_after_max_retries;
          Alcotest.test_case "nested calls" `Quick nested_calls_all_go_on_the_wire;
          Alcotest.test_case "malformed request counted" `Quick malformed_request_is_counted;
        ] );
      ( "batch",
        [
          Alcotest.test_case "in-order with error isolation" `Quick
            batch_executes_in_order_with_error_isolation;
          Alcotest.test_case "batched churn == per-op churn" `Quick
            batched_churn_matches_per_op;
          Alcotest.test_case "fenced batch counted" `Quick fenced_batch_is_counted;
        ] );
      ( "controller",
        [
          Alcotest.test_case "rpc_calls = wire messages" `Quick rpc_calls_count_wire_messages;
          Alcotest.test_case "ideal channel free" `Quick ideal_channel_is_free;
          Alcotest.test_case "lossy join same state" `Quick lossy_join_converges_to_same_state;
          Alcotest.test_case "dead channel error" `Quick dead_channel_surfaces_as_controller_error;
        ] );
    ]
