(* Two-party meetings take Scallop's unicast fast path: no replication
   tree is allocated at all, which is what lets a single switch hold
   ~533K concurrent two-party calls (paper §6.1). This example shows the
   fast path in action and the capacity math behind it, then adds a third
   participant and watches the agent migrate the meeting onto a tree.

     dune exec examples/two_party.exe *)

module Engine = Netsim.Engine

let designs t = function
  | Scallop.Trees.Two_party -> ignore t; "two-party unicast"
  | Scallop.Trees.Nra -> "NRA tree"
  | Scallop.Trees.Ra_r -> "RA-R trees"
  | Scallop.Trees.Ra_sr -> "RA-SR trees"

let () =
  let stack = Experiments.Common.make_scallop ~seed:9 () in
  let meeting, _members = Experiments.Common.scallop_meeting stack ~participants:2 ~senders:2 () in
  let agent_meeting = Scallop.Controller.agent_meeting_id stack.controller meeting in
  Experiments.Common.run_for stack.engine ~seconds:5.0;
  Printf.printf "with 2 participants: design = %s, PRE trees in use = %d\n"
    (designs () (Scallop.Switch_agent.meeting_design stack.agent agent_meeting))
    (Tofino.Pre.trees_used (Scallop.Dataplane.pre stack.dp));

  (* a third participant joins: the agent builds a tree and migrates *)
  let client =
    Experiments.Common.add_client stack.engine stack.network stack.rng ~index:2 ()
  in
  let _pid = Scallop.Controller.join stack.controller meeting client ~send_media:true in
  Experiments.Common.run_for stack.engine ~seconds:5.0;
  Printf.printf "with 3 participants: design = %s, PRE trees in use = %d, migrations = %d\n\n"
    (designs () (Scallop.Switch_agent.meeting_design stack.agent agent_meeting))
    (Tofino.Pre.trees_used (Scallop.Dataplane.pre stack.dp))
    (Scallop_obs.Metrics.read ~labels:[ ("switch", "sw0") ] "scallop_agent_migrations");

  (* the capacity story the fast path buys *)
  let two_party =
    Scallop.Capacity.meetings_supported Scallop.Capacity.Two_party ~participants:2 ~senders:2 ()
  in
  let software =
    Sfu.Capacity.meetings_supported ~participants:2 ~senders:2 ~media_types:2 ()
  in
  Printf.printf "capacity: %d concurrent two-party meetings on one switch vs %d on a 32-core server (%.0fx)\n"
    two_party software
    (float_of_int two_party /. float_of_int software)
