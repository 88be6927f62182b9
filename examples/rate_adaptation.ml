(* Rate adaptation end to end (the Fig. 14 scenario as a worked example):
   a three-party call in which one participant's downlink deteriorates,
   GCC at that receiver detects the congestion, its REMB feedback reaches
   the switch agent, and the agent re-programs the data plane to drop SVC
   enhancement layers — while the stream keeps playing with no freezes.

     dune exec examples/rate_adaptation.exe *)

module Engine = Netsim.Engine
module Link = Netsim.Link
module Dd = Av1.Dd

let () =
  let stack = Experiments.Common.make_scallop ~seed:42 () in
  let _meeting, members =
    Experiments.Common.scallop_meeting stack ~participants:3 ~senders:3 ()
  in
  let pids = List.map fst members in
  let victim = List.nth pids 2 in
  let victim_ip = Experiments.Common.client_ip 2 in
  let agent_meeting = Scallop.Controller.agent_meeting_id stack.controller 0 in

  let report label =
    let target =
      Scallop.Switch_agent.current_target stack.agent ~meeting:agent_meeting
        ~sender:(List.hd pids) ~receiver:victim
    in
    let rx =
      Scallop.Controller.recv_connection stack.controller victim ~from:(List.hd pids)
      |> Option.get |> Webrtc.Client.receiver |> Option.get
    in
    Printf.printf "%-28s target=%4.1f fps  decoded=%4d  freezes=%d  est=%s\n" label
      (Dd.fps_of_target target)
      (Codec.Video_receiver.frames_decoded rx)
      (Codec.Video_receiver.freezes rx)
      (match
         Scallop.Controller.recv_connection stack.controller victim ~from:(List.hd pids)
         |> Option.get |> Webrtc.Client.gcc_estimate
       with
      | Some e -> Printf.sprintf "%.2f Mb/s" (float_of_int e /. 1e6)
      | None -> "-")
  in

  Experiments.Common.run_for stack.engine ~seconds:15.0;
  report "healthy downlink:";

  (* the victim's downlink drops to 3.8 Mb/s — not enough for two full
     2.5 Mb/s streams, enough for two 15 fps ones *)
  Link.set_rate (Netsim.Network.downlink stack.network ~ip:victim_ip) 3.8e6;
  Experiments.Common.run_for stack.engine ~seconds:15.0;
  report "after first degradation:";

  (* and further down to 2.4 Mb/s: only the 7.5 fps base layers fit *)
  Link.set_rate (Netsim.Network.downlink stack.network ~ip:victim_ip) 2.4e6;
  Experiments.Common.run_for stack.engine ~seconds:15.0;
  report "after second degradation:";

  let agent what = Scallop_obs.Metrics.read ~labels:[ ("switch", "sw0") ] what in
  Printf.printf
    "\nswitch agent: %d REMBs analyzed, %d decode-target changes, %d tree migrations\n"
    (agent "scallop_agent_rembs_analyzed")
    (agent "scallop_agent_target_changes")
    (agent "scallop_agent_migrations")
