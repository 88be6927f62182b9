module P = Tofino.Pre
module R = Tofino.Resources
module C = Scallop.Controller
module A = Scallop.Switch_agent
module D = Scallop.Dataplane
module T = Scallop.Trees

(* --- findings --------------------------------------------------------------- *)

type severity = Error | Warning
type layer = Controller | Agent | Dataplane | Pre | Resources

type kind =
  | Duplicate_rid
  | Orphan_l1_node
  | Dangling_tree_node
  | Self_prune_mismatch
  | Xid_ports_invalid
  | Unreachable_leg
  | Orphan_replica
  | Dangling_feedback
  | Table_overflow
  | Stream_index_corrupt
  | Resource_budget
  | Stale_pre_cache
  | Intent_drift
  | Shadow_drift
  | Split_brain
  | Journal_drift

type finding = {
  severity : severity;
  layer : layer;
  kind : kind;
  subject : string;
  explanation : string;
  trace_ids : int list;
}

let severity_name = function Error -> "error" | Warning -> "warning"

let layer_name = function
  | Controller -> "controller"
  | Agent -> "agent"
  | Dataplane -> "dataplane"
  | Pre -> "pre"
  | Resources -> "resources"

let kind_name = function
  | Duplicate_rid -> "duplicate-rid"
  | Orphan_l1_node -> "orphan-l1-node"
  | Dangling_tree_node -> "dangling-tree-node"
  | Self_prune_mismatch -> "self-prune-mismatch"
  | Xid_ports_invalid -> "xid-ports-invalid"
  | Unreachable_leg -> "unreachable-leg"
  | Orphan_replica -> "orphan-replica"
  | Dangling_feedback -> "dangling-feedback"
  | Table_overflow -> "table-overflow"
  | Stream_index_corrupt -> "stream-index-corrupt"
  | Resource_budget -> "resource-budget"
  | Stale_pre_cache -> "stale-pre-cache"
  | Intent_drift -> "intent-drift"
  | Shadow_drift -> "shadow-drift"
  | Split_brain -> "split-brain"
  | Journal_drift -> "journal-drift"

let pp_finding ppf f =
  Format.fprintf ppf "%-7s %-10s %-20s %-28s %s" (severity_name f.severity)
    (layer_name f.layer) (kind_name f.kind) f.subject f.explanation;
  if f.trace_ids <> [] then
    Format.fprintf ppf " [traces: %s]"
      (String.concat "," (List.map string_of_int f.trace_ids))

let report findings =
  String.concat "\n"
    (List.map (fun f -> Format.asprintf "%a" pp_finding f) findings)

let errors findings = List.filter (fun f -> f.severity = Error) findings

(* --- snapshots --------------------------------------------------------------

   A snapshot is plain data wherever a check is plain data (table
   occupancy, PRE structure, allocator state) so the mutation harness can
   tamper with records directly; the live [Trees.t]/[Pre.t] handles ride
   along for the behavioural checks (route -> replicate -> receiver) that
   must execute real data-plane lookups. *)

type pre_node = {
  pn_id : P.node_id;
  pn_rid : int;
  pn_l1_xid : int;
  pn_prune : bool;
  pn_ports : int list;
  pn_tree : P.mgid option;
}

type pre_tree = { pt_mgid : P.mgid; pt_nodes : P.node_id list }

type pre_state = {
  ps_nodes : pre_node list;
  ps_trees : pre_tree list;
  ps_l2_xids : (int * int list) list;
  ps_limits : P.limits;
}

type switch_snapshot = {
  sw_index : int;
  sw_agent_meetings : A.meeting_view list;
  sw_uplinks : D.uplink_view list;
  sw_legs : D.leg_view list;
  sw_feedback : (int * int) list;
  sw_tables : D.table_occupancy list;
  sw_stream_free : int list;
  sw_stream_next : int;
  sw_l2_refs : (int * int) list;
  sw_pre_state : pre_state;
  sw_program : R.program;
  sw_trees : T.t;
  sw_pre : P.t;
}

type t = { snap_intent : C.intent; snap_switches : switch_snapshot list }

let pre_state_of pre =
  let nodes = ref [] in
  P.iter_nodes pre (fun id ->
      nodes :=
        {
          pn_id = id;
          pn_rid = P.node_rid pre id;
          pn_l1_xid = P.node_l1_xid pre id;
          pn_prune = P.node_prune_enabled pre id;
          pn_ports = P.node_ports pre id;
          pn_tree = P.node_tree pre id;
        }
        :: !nodes);
  let trees = ref [] in
  P.iter_trees pre (fun ~mgid ~nodes ->
      trees := { pt_mgid = mgid; pt_nodes = nodes } :: !trees);
  let xids = ref [] in
  P.iter_l2_xids pre (fun ~xid ~ports -> xids := (xid, ports) :: !xids);
  {
    ps_nodes = List.sort (fun a b -> compare a.pn_id b.pn_id) !nodes;
    ps_trees = List.sort (fun a b -> compare a.pt_mgid b.pt_mgid) !trees;
    ps_l2_xids = List.sort compare !xids;
    ps_limits = P.limits pre;
  }

let snapshot_switch ~index agent dp =
  let free, next = D.stream_index_state dp in
  {
    sw_index = index;
    sw_agent_meetings = A.introspect agent;
    sw_uplinks = D.uplinks_view dp;
    sw_legs = D.legs_view dp;
    sw_feedback = D.feedback_view dp;
    sw_tables = D.table_occupancy dp;
    sw_stream_free = free;
    sw_stream_next = next;
    sw_l2_refs = T.l2_xid_refs (D.trees dp);
    sw_pre_state = pre_state_of (D.pre dp);
    sw_program = D.resource_program dp;
    sw_trees = D.trees dp;
    sw_pre = D.pre dp;
  }

let snapshot ctrl =
  {
    snap_intent = C.introspect ctrl;
    snap_switches =
      List.init (C.switch_count ctrl) (fun i ->
          let agent, dp = C.switch_agent ctrl i in
          snapshot_switch ~index:i agent dp);
  }

(* --- check plumbing --------------------------------------------------------- *)

type ctx = { mutable acc : finding list }

let add ?(trace_ids = []) ctx severity layer kind subject explanation =
  ctx.acc <- { severity; layer; kind; subject; explanation; trace_ids } :: ctx.acc

let errf ctx layer kind subject fmt =
  Printf.ksprintf (add ctx Error layer kind subject) fmt

let errf_traced ctx ~trace_ids layer kind subject fmt =
  Printf.ksprintf (add ~trace_ids ctx Error layer kind subject) fmt

let warnf ctx layer kind subject fmt =
  Printf.ksprintf (add ctx Warning layer kind subject) fmt

let ports_str ports = String.concat "," (List.map string_of_int ports)

(* A switch the controller's failure detector has declared Dead is
   {e expected} to lag intent — mutations towards it are queued, not
   applied, while its data plane keeps forwarding last-known state — so
   intent-coupled checks stand down for it until it heals. Switch-internal
   invariants (PRE structure, shadow vs ground truth, allocators) still
   apply: a partition must not corrupt anything. *)
let dead_in (intent : C.intent) idx =
  List.exists
    (fun (h : C.health_view) -> h.C.hv_agent = idx && h.C.hv_state = C.Dead)
    intent.C.in_health

(* --- PRE structure: trees, nodes, RIDs -------------------------------------- *)

let check_pre ctx sw =
  let st = sw.sw_pre_state in
  let lim = st.ps_limits in
  let subj_pre = Printf.sprintf "sw%d/pre" sw.sw_index in
  let subj_tree mgid = Printf.sprintf "sw%d/tree:%#x" sw.sw_index mgid in
  let subj_node id = Printf.sprintf "sw%d/node:%d" sw.sw_index id in
  let node_by_id = List.map (fun n -> (n.pn_id, n)) st.ps_nodes in
  let tree_by_mgid = List.map (fun tr -> (tr.pt_mgid, tr)) st.ps_trees in
  if List.length st.ps_trees > lim.P.max_trees then
    errf ctx Pre Resource_budget subj_pre "%d trees exceed the PRE limit of %d"
      (List.length st.ps_trees) lim.P.max_trees;
  if List.length st.ps_nodes > lim.P.max_l1_nodes then
    errf ctx Pre Resource_budget subj_pre "%d L1 nodes exceed the PRE limit of %d"
      (List.length st.ps_nodes) lim.P.max_l1_nodes;
  List.iter
    (fun tr ->
      let rids =
        List.filter_map
          (fun id -> Option.map (fun n -> n.pn_rid) (List.assoc_opt id node_by_id))
          tr.pt_nodes
      in
      let rec dups = function
        | a :: (b :: _ as tl) -> if a = b then a :: dups tl else dups tl
        | _ -> []
      in
      List.iter
        (fun rid ->
          errf ctx Pre Duplicate_rid (subj_tree tr.pt_mgid)
            "RID %d is assigned to more than one L1 node of the tree" rid)
        (List.sort_uniq compare (dups (List.sort compare rids)));
      if List.length (List.sort_uniq compare rids) > lim.P.max_rids_per_tree then
        errf ctx Pre Resource_budget (subj_tree tr.pt_mgid)
          "%d distinct RIDs exceed the per-tree limit of %d"
          (List.length (List.sort_uniq compare rids))
          lim.P.max_rids_per_tree;
      List.iter
        (fun id ->
          match List.assoc_opt id node_by_id with
          | None ->
              errf ctx Pre Dangling_tree_node (subj_tree tr.pt_mgid)
                "tree lists node %d, which is not allocated" id
          | Some n ->
              if n.pn_tree <> Some tr.pt_mgid then
                errf ctx Pre Dangling_tree_node (subj_tree tr.pt_mgid)
                  "node %d is listed here but records membership of %s" id
                  (match n.pn_tree with
                  | None -> "no tree"
                  | Some m -> Printf.sprintf "tree %#x" m))
        tr.pt_nodes)
    st.ps_trees;
  List.iter
    (fun n ->
      match n.pn_tree with
      | None -> ()
      | Some m -> (
          match List.assoc_opt m tree_by_mgid with
          | None ->
              errf ctx Pre Dangling_tree_node (subj_node n.pn_id)
                "node points at tree %#x, which does not exist" m
          | Some tr ->
              if not (List.mem n.pn_id tr.pt_nodes) then
                errf ctx Pre Dangling_tree_node (subj_node n.pn_id)
                  "tree %#x does not list this node as a member" m))
    st.ps_nodes;
  (* every allocated node must be owned by exactly one registered meeting *)
  let owned = Hashtbl.create 64 in
  List.iter
    (fun (am : A.meeting_view) ->
      List.iter
        (fun (nb : T.node_binding) ->
          (match Hashtbl.find_opt owned nb.T.nb_node with
          | Some owner when owner <> am.A.amv_id ->
              errf ctx Agent Shadow_drift (subj_node nb.T.nb_node)
                "L1 node is owned by both agent meeting %d and %d" owner am.A.amv_id
          | _ -> ());
          Hashtbl.replace owned nb.T.nb_node am.A.amv_id;
          if not (List.mem_assoc nb.T.nb_node node_by_id) then
            errf ctx Agent Shadow_drift
              (Printf.sprintf "sw%d/meeting:%d" sw.sw_index am.A.amv_id)
              "tree bookkeeping references PRE node %d, which is not allocated"
              nb.T.nb_node)
        (T.node_bindings am.A.amv_handle))
    sw.sw_agent_meetings;
  List.iter
    (fun n ->
      if not (Hashtbl.mem owned n.pn_id) then
        errf ctx Pre Orphan_l1_node (subj_node n.pn_id)
          "L1 node (rid %d, ports [%s]) is not owned by any registered meeting — leaked"
          n.pn_rid (ports_str n.pn_ports))
    st.ps_nodes

(* --- L2 exclusion sets ------------------------------------------------------ *)

let check_xids ctx sw =
  let st = sw.sw_pre_state in
  let subj xid = Printf.sprintf "sw%d/l2-xid:%d" sw.sw_index xid in
  let node_by_id = List.map (fun n -> (n.pn_id, n)) st.ps_nodes in
  let tree_ports =
    List.concat_map
      (fun tr ->
        List.concat_map
          (fun id ->
            match List.assoc_opt id node_by_id with
            | Some n -> n.pn_ports
            | None -> [])
          tr.pt_nodes)
      st.ps_trees
    |> List.sort_uniq compare
  in
  List.iter
    (fun (xid, ports) ->
      if ports = [] then
        errf ctx Pre Xid_ports_invalid (subj xid) "exclusion port set is empty";
      List.iter
        (fun p ->
          if not (List.mem p tree_ports) then
            errf ctx Pre Xid_ports_invalid (subj xid)
              "excludes port %d, which no replication tree egresses to" p)
        ports;
      match List.assoc_opt xid sw.sw_l2_refs with
      | None ->
          errf ctx Pre Xid_ports_invalid (subj xid)
            "programmed in the PRE but not tracked by the tree layer"
      | Some c when c <= 0 ->
          errf ctx Pre Xid_ports_invalid (subj xid)
            "tracked with non-positive reference count %d" c
      | Some _ -> ())
    st.ps_l2_xids;
  List.iter
    (fun (xid, count) ->
      if not (List.mem_assoc xid st.ps_l2_xids) then
        errf ctx Dataplane Xid_ports_invalid (subj xid)
          "tree layer holds %d reference(s) to an L2-XID the PRE does not program"
          count)
    sw.sw_l2_refs

(* --- behavioural reachability: route -> replicate -> receiver --------------- *)

(* Whether [pid]'s registration on switch [idx] is meant to receive the
   media of an uplink whose sender is homed on switch [sender_home]:

   - a participant homed on [idx] consumes every stream of its meeting;
   - a relay pseudo receiver on [idx] consumes only streams of senders
     {e homed} on [idx] — forwarding a relayed-in stream back out would
     loop it between switches, so the controller deliberately gives those
     replicas no egress leg and they die at the egress lookup;
   - senders registered on a remote switch only to anchor their relay
     uplink are members there but consume nothing. *)
let receives_on intent ~idx ~sender_home pid =
  List.exists
    (fun (p : C.participant_view) -> p.C.pv_pid = pid && p.C.pv_home = idx)
    intent.C.in_participants
  || (sender_home = Some idx
     && List.exists
          (fun (r : C.relay_view) -> r.C.rv_pid = pid && r.C.rv_src = idx)
          intent.C.in_relays)

let check_uplink ctx intent sw (uv : D.uplink_view) =
  let subj = Printf.sprintf "sw%d/uplink:%d" sw.sw_index uv.uv_port in
  let h = uv.uv_meeting in
  let members = T.participants h in
  let sender_home =
    Option.map
      (fun (p : C.participant_view) -> p.C.pv_home)
      (List.find_opt
         (fun (p : C.participant_view) -> p.C.pv_pid = uv.uv_sender)
         intent.C.in_participants)
  in
  let receives_on = receives_on intent ~idx:sw.sw_index ~sender_home in
  let expected =
    List.filter (fun (pid, _) -> pid <> uv.uv_sender && receives_on pid) members
  in
  let sender_ports =
    List.filter_map
      (fun (pid, port) -> if pid = uv.uv_sender then Some port else None)
      members
  in
  let delivered =
    match T.route_media sw.sw_trees h ~sender:uv.uv_sender ~layer:Av1.Dd.T0 with
    | T.No_receivers ->
        if expected <> [] then
          errf ctx Dataplane Unreachable_leg subj
            "routing yields no receivers but %d members expect sender %d's media"
            (List.length expected) uv.uv_sender;
        Some []
    | T.Unicast { port; receiver } -> Some [ (receiver, port) ]
    | T.Replicate { mgid; l1_xid; rid; l2_xid } ->
        (* the packet's self-prune metadata must name an exclusion set
           covering the sender's own egress port *)
        (if l2_xid <> 0 then
           match List.assoc_opt l2_xid sw.sw_pre_state.ps_l2_xids with
           | None ->
               errf ctx Pre Self_prune_mismatch subj
                 "packet L2-XID %d has no exclusion port set programmed" l2_xid
           | Some ports ->
               List.iter
                 (fun sp ->
                   if not (List.mem sp ports) then
                     errf ctx Pre Self_prune_mismatch subj
                       "L2-XID %d excludes ports [%s], not the sender's own port %d"
                       l2_xid (ports_str ports) sp)
                 sender_ports);
        Some
          (List.map
             (fun (r : P.replica) ->
               (T.receiver_of_replica sw.sw_trees h ~mgid ~rid:r.P.rid, r.P.port))
             (P.replicate sw.sw_pre ~mgid ~l1_xid ~rid ~l2_xid))
    | exception e ->
        errf ctx Dataplane Unreachable_leg subj "media routing failed: %s"
          (Printexc.to_string e);
        None
  in
  (match delivered with
  | None -> ()
  | Some delivered ->
      List.iter
        (fun (_, port) ->
          if List.mem port sender_ports then
            errf ctx Pre Self_prune_mismatch subj
              "a replica egresses on the sender's own port %d" port)
        delivered;
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (pid, port) ->
          if pid < 0 then begin
            if not (List.mem port sender_ports) then
              errf ctx Pre Orphan_replica subj
                "replica on port %d addresses no registered participant" port
          end
          else (
              if Hashtbl.mem seen pid then
                errf ctx Pre Orphan_replica subj
                  "participant %d receives more than one replica" pid
              else Hashtbl.add seen pid ();
              match List.assoc_opt pid members with
              | None ->
                  errf ctx Pre Orphan_replica subj
                    "replica addresses %d, which is not a member of the meeting" pid
              | Some eport ->
                  if eport <> port && receives_on pid then
                    errf ctx Pre Orphan_replica subj
                      "replica for %d egresses on port %d; its registered egress is %d"
                      pid port eport))
        delivered;
      List.iter
        (fun (pid, eport) ->
          if not (Hashtbl.mem seen pid) then
            errf ctx Dataplane Unreachable_leg subj
              "member %d (egress %d) receives no replica of sender %d's media" pid
              eport uv.uv_sender)
        expected);
  (* every receiving member needs an egress leg; every leg a member *)
  let legs = List.filter (fun (l : D.leg_view) -> l.D.lv_uplink_port = uv.uv_port) sw.sw_legs in
  List.iter
    (fun (pid, _) ->
      if not (List.exists (fun (l : D.leg_view) -> l.D.lv_receiver = pid) legs) then
        errf ctx Dataplane Unreachable_leg subj
          "member %d has no egress leg for this stream" pid)
    expected;
  List.iter
    (fun (l : D.leg_view) ->
      if l.D.lv_receiver = uv.uv_sender then
        errf ctx Dataplane Orphan_replica subj
          "sender %d has an egress leg for its own stream" uv.uv_sender
      else if not (List.exists (fun (pid, _) -> pid = l.D.lv_receiver) expected) then
        errf ctx Dataplane Orphan_replica subj
          "egress leg for %d, which is not a receiving member of the meeting"
          l.D.lv_receiver)
    legs

(* --- dataplane table hygiene ------------------------------------------------ *)

let check_legs ctx sw =
  List.iter
    (fun (l : D.leg_view) ->
      if
        not
          (List.exists
             (fun (u : D.uplink_view) -> u.D.uv_port = l.D.lv_uplink_port)
             sw.sw_uplinks)
      then
        errf ctx Dataplane Orphan_replica
          (Printf.sprintf "sw%d/leg:%d" sw.sw_index l.D.lv_src_port)
          "egress leg (receiver %d) references unknown uplink port %d"
          l.D.lv_receiver l.D.lv_uplink_port)
    sw.sw_legs

let check_feedback ctx sw =
  List.iter
    (fun (src_port, receiver) ->
      if
        not
          (List.exists
             (fun (l : D.leg_view) ->
               l.D.lv_src_port = src_port && l.D.lv_receiver = receiver)
             sw.sw_legs)
      then
        errf ctx Dataplane Dangling_feedback
          (Printf.sprintf "sw%d/feedback:%d" sw.sw_index src_port)
          "feedback rule (receiver %d) matches no live egress leg" receiver)
    sw.sw_feedback;
  List.iter
    (fun (l : D.leg_view) ->
      if
        not
          (List.exists
             (fun (sp, r) -> sp = l.D.lv_src_port && r = l.D.lv_receiver)
             sw.sw_feedback)
      then
        errf ctx Dataplane Dangling_feedback
          (Printf.sprintf "sw%d/leg:%d" sw.sw_index l.D.lv_src_port)
          "egress leg (receiver %d) has no feedback rule on its port"
          l.D.lv_receiver)
    sw.sw_legs

let check_tables ctx sw =
  List.iter
    (fun (o : D.table_occupancy) ->
      let subj = Printf.sprintf "sw%d/table:%s" sw.sw_index o.D.tbl_name in
      if o.D.tbl_size > o.D.tbl_capacity then
        errf ctx Dataplane Table_overflow subj "%d entries exceed the capacity of %d"
          o.D.tbl_size o.D.tbl_capacity
      else if o.D.tbl_capacity > 0 && o.D.tbl_size * 10 >= o.D.tbl_capacity * 9 then
        warnf ctx Dataplane Table_overflow subj "%d entries, within 10%% of capacity %d"
          o.D.tbl_size o.D.tbl_capacity)
    sw.sw_tables

let check_stream_indices ctx sw =
  let subj = Printf.sprintf "sw%d/stream-index" sw.sw_index in
  let free = sw.sw_stream_free and next = sw.sw_stream_next in
  let rec dups = function
    | a :: (b :: _ as tl) -> if a = b then a :: dups tl else dups tl
    | _ -> []
  in
  List.iter
    (fun i -> errf ctx Dataplane Stream_index_corrupt subj "index %d is on the free list twice" i)
    (List.sort_uniq compare (dups (List.sort compare free)));
  List.iter
    (fun i ->
      if i < 0 || i >= next then
        errf ctx Dataplane Stream_index_corrupt subj
          "free index %d is outside the allocated range [0,%d)" i next)
    free;
  let used =
    List.filter_map
      (fun (l : D.leg_view) ->
        if l.D.lv_stream_index >= 0 then Some (l.D.lv_stream_index, l.D.lv_src_port)
        else None)
      sw.sw_legs
  in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (i, port) ->
      (match Hashtbl.find_opt seen i with
      | Some other ->
          errf ctx Dataplane Stream_index_corrupt subj
            "legs at ports %d and %d share stream index %d" other port i
      | None -> Hashtbl.add seen i port);
      if List.mem i free then
        errf ctx Dataplane Stream_index_corrupt subj
          "index %d is both in use (leg at port %d) and on the free list" i port;
      if i >= next then
        errf ctx Dataplane Stream_index_corrupt subj
          "leg at port %d uses index %d beyond the allocation frontier %d" port i next)
    used

(* --- resource re-audit ------------------------------------------------------ *)

let check_resources ctx ~totals sw =
  let p = sw.sw_program in
  let subj = Printf.sprintf "sw%d/resources" sw.sw_index in
  if p.R.ingress_parser_depth > totals.R.max_parser_depth then
    errf ctx Resources Resource_budget subj
      "ingress parser depth %d exceeds the chip limit of %d" p.R.ingress_parser_depth
      totals.R.max_parser_depth;
  if p.R.egress_parser_depth > totals.R.max_parser_depth then
    errf ctx Resources Resource_budget subj
      "egress parser depth %d exceeds the chip limit of %d" p.R.egress_parser_depth
      totals.R.max_parser_depth;
  if not (R.stages_ok ~totals p) then
    errf ctx Resources Resource_budget subj
      "pipeline needs more than the %d available stages" totals.R.stages;
  let sram = R.sram_blocks_used ~totals p in
  let sram_budget = totals.R.sram_blocks * totals.R.stages in
  if sram > sram_budget then
    errf ctx Resources Resource_budget subj "%d SRAM blocks exceed the chip budget of %d"
      sram sram_budget
  else if sram * 10 >= sram_budget * 9 then
    warnf ctx Resources Resource_budget subj "%d SRAM blocks, within 10%% of the budget %d"
      sram sram_budget;
  if p.R.phv_bits_used > totals.R.phv_bits then
    errf ctx Resources Resource_budget subj "%d PHV bits exceed the %d available"
      p.R.phv_bits_used totals.R.phv_bits;
  if p.R.vliw_used > totals.R.vliw_slots * totals.R.stages then
    errf ctx Resources Resource_budget subj "%d VLIW slots exceed the %d available"
      p.R.vliw_used
      (totals.R.vliw_slots * totals.R.stages)

(* --- agent shadow vs data-plane ground truth -------------------------------- *)

let check_shadow ctx sw =
  let subj_meeting amid = Printf.sprintf "sw%d/meeting:%d" sw.sw_index amid in
  List.iter
    (fun (am : A.meeting_view) ->
      let subj = subj_meeting am.A.amv_id in
      if T.design_of am.A.amv_handle <> am.A.amv_design then
        errf ctx Dataplane Shadow_drift subj
          "agent believes the meeting runs design %s; the trees run %s"
          (match am.A.amv_design with
          | T.Two_party -> "two-party"
          | T.Nra -> "nra"
          | T.Ra_r -> "ra-r"
          | T.Ra_sr -> "ra-sr")
          (match T.design_of am.A.amv_handle with
          | T.Two_party -> "two-party"
          | T.Nra -> "nra"
          | T.Ra_r -> "ra-r"
          | T.Ra_sr -> "ra-sr");
      let tree_members = T.participants am.A.amv_handle in
      List.iter
        (fun (pid, port) ->
          if not (List.mem (pid, port) tree_members) then
            errf ctx Dataplane Shadow_drift subj
              "agent member %d (egress %d) is not registered in the replication trees"
              pid port)
        am.A.amv_members;
      List.iter
        (fun (pid, port) ->
          if not (List.mem (pid, port) am.A.amv_members) then
            errf ctx Dataplane Shadow_drift subj
              "tree participant %d (egress %d) is unknown to the agent" pid port)
        tree_members;
      List.iter
        (fun (sv : A.stream_view) ->
          let subj = Printf.sprintf "%s/uplink:%d" subj sv.A.asv_uplink_port in
          (match
             List.find_opt
               (fun (u : D.uplink_view) -> u.D.uv_port = sv.A.asv_uplink_port)
               sw.sw_uplinks
           with
          | None ->
              errf ctx Dataplane Shadow_drift subj
                "agent stream (sender %d) has no data-plane uplink entry"
                sv.A.asv_sender
          | Some u ->
              if
                u.D.uv_sender <> sv.A.asv_sender
                || u.D.uv_video_ssrc <> sv.A.asv_video_ssrc
                || u.D.uv_audio_ssrc <> sv.A.asv_audio_ssrc
              then
                errf ctx Dataplane Shadow_drift subj
                  "uplink identifiers disagree (agent %d/%#x, data plane %d/%#x)"
                  sv.A.asv_sender sv.A.asv_video_ssrc u.D.uv_sender u.D.uv_video_ssrc;
              if T.handle_id u.D.uv_meeting <> T.handle_id am.A.amv_handle then
                errf ctx Dataplane Shadow_drift subj
                  "uplink points at tree handle %d; the agent meeting uses %d"
                  (T.handle_id u.D.uv_meeting)
                  (T.handle_id am.A.amv_handle);
              if
                List.map fst (Array.to_list sv.A.asv_renditions)
                <> Array.to_list u.D.uv_renditions
              then
                errf ctx Dataplane Shadow_drift subj
                  "simulcast renditions disagree between agent and data plane");
          List.iter
            (fun (al : A.leg_view) ->
              if
                not
                  (List.exists
                     (fun (l : D.leg_view) ->
                       l.D.lv_src_port = al.A.alv_port
                       && l.D.lv_receiver = al.A.alv_receiver
                       && l.D.lv_uplink_port = sv.A.asv_uplink_port)
                     sw.sw_legs)
              then
                errf ctx Dataplane Shadow_drift subj
                  "agent leg at port %d (receiver %d) has no data-plane egress entry"
                  al.A.alv_port al.A.alv_receiver)
            sv.A.asv_legs)
        am.A.amv_streams)
    sw.sw_agent_meetings;
  let agent_streams =
    List.concat_map
      (fun (am : A.meeting_view) ->
        List.map (fun (sv : A.stream_view) -> sv.A.asv_uplink_port) am.A.amv_streams)
      sw.sw_agent_meetings
  in
  List.iter
    (fun (u : D.uplink_view) ->
      if not (List.mem u.D.uv_port agent_streams) then
        errf ctx Dataplane Shadow_drift
          (Printf.sprintf "sw%d/uplink:%d" sw.sw_index u.D.uv_port)
          "data-plane uplink (sender %d) is unknown to the agent" u.D.uv_sender)
    sw.sw_uplinks;
  let agent_legs =
    List.concat_map
      (fun (am : A.meeting_view) ->
        List.concat_map
          (fun (sv : A.stream_view) ->
            List.map
              (fun (al : A.leg_view) -> (al.A.alv_port, al.A.alv_receiver))
              sv.A.asv_legs)
          am.A.amv_streams)
      sw.sw_agent_meetings
  in
  List.iter
    (fun (l : D.leg_view) ->
      if not (List.mem (l.D.lv_src_port, l.D.lv_receiver) agent_legs) then
        errf ctx Dataplane Shadow_drift
          (Printf.sprintf "sw%d/leg:%d" sw.sw_index l.D.lv_src_port)
          "data-plane egress leg (receiver %d) is unknown to the agent" l.D.lv_receiver)
    sw.sw_legs

(* --- controller intent vs agent shadow -------------------------------------- *)

let check_intent ctx snap =
  let intent = snap.snap_intent in
  let find_participant pid =
    List.find_opt (fun (p : C.participant_view) -> p.C.pv_pid = pid) intent.C.in_participants
  in
  let dead idx = dead_in intent idx in
  List.iter
    (fun (mv : C.meeting_view) ->
      List.iter
        (fun pid ->
          match find_participant pid with
          | None ->
              errf ctx Controller Intent_drift
                (Printf.sprintf "meeting:%d" mv.C.cmv_mid)
                "member %d has no participant record" pid
          | Some p ->
              if p.C.pv_meeting <> mv.C.cmv_mid then
                errf ctx Controller Intent_drift
                  (Printf.sprintf "meeting:%d" mv.C.cmv_mid)
                  "member %d records meeting %d instead" pid p.C.pv_meeting)
        mv.C.cmv_members;
      List.iter
        (fun (idx, agent_mid) ->
          if dead idx then ()
          else if agent_mid < 0 then
            errf ctx Controller Intent_drift
              (Printf.sprintf "sw%d/meeting:%d" idx mv.C.cmv_mid)
              "site still carries provisional agent meeting id %d though the switch is \
               not Dead"
              agent_mid
          else
          match List.find_opt (fun sw -> sw.sw_index = idx) snap.snap_switches with
          | None ->
              errf ctx Controller Intent_drift
                (Printf.sprintf "meeting:%d" mv.C.cmv_mid)
                "site on switch %d, which is not part of the snapshot" idx
          | Some sw -> (
              let subj = Printf.sprintf "sw%d/meeting:%d" idx mv.C.cmv_mid in
              match
                List.find_opt
                  (fun (am : A.meeting_view) -> am.A.amv_id = agent_mid)
                  sw.sw_agent_meetings
              with
              | None ->
                  errf ctx Agent Intent_drift subj
                    "controller intends agent meeting %d; the agent has no such meeting"
                    agent_mid
              | Some am ->
                  let expected_members =
                    List.filter_map
                      (fun pid ->
                        Option.bind (find_participant pid) (fun p ->
                            Option.map
                              (fun port -> (pid, port))
                              (List.assoc_opt idx p.C.pv_sites)))
                      mv.C.cmv_members
                    @ List.filter_map
                        (fun (r : C.relay_view) ->
                          if r.C.rv_meeting = mv.C.cmv_mid && r.C.rv_src = idx then
                            Some (r.C.rv_pid, r.C.rv_egress_port)
                          else None)
                        intent.C.in_relays
                  in
                  List.iter
                    (fun (pid, port) ->
                      if not (List.mem (pid, port) am.A.amv_members) then
                        errf ctx Agent Intent_drift subj
                          "controller intends participant %d (egress %d); the agent does not register it"
                          pid port)
                    expected_members;
                  List.iter
                    (fun (pid, port) ->
                      if not (List.mem (pid, port) expected_members) then
                        errf ctx Agent Intent_drift subj
                          "agent registers participant %d (egress %d) the controller does not intend"
                          pid port)
                    am.A.amv_members;
                  let expected_streams =
                    List.concat_map
                      (fun pid ->
                        match find_participant pid with
                        | None -> []
                        | Some p ->
                            let cam =
                              match List.assoc_opt idx p.C.pv_cam_ports with
                              | Some port ->
                                  [ (port, pid, p.C.pv_video_ssrc, p.C.pv_audio_ssrc) ]
                              | None -> []
                            in
                            let screen =
                              match
                                (List.assoc_opt idx p.C.pv_screen_ports, p.C.pv_screen_ssrc)
                              with
                              | Some port, Some vs -> [ (port, pid, vs, vs + 1) ]
                              | Some port, None -> [ (port, pid, -1, -1) ]
                              | None, _ -> []
                            in
                            cam @ screen)
                      mv.C.cmv_members
                  in
                  List.iter
                    (fun (port, sender, vs, audio) ->
                      match
                        List.find_opt
                          (fun (s : A.stream_view) -> s.A.asv_uplink_port = port)
                          am.A.amv_streams
                      with
                      | None ->
                          errf ctx Agent Intent_drift subj
                            "controller intends an uplink at port %d (sender %d); the agent has none"
                            port sender
                      | Some s ->
                          if
                            s.A.asv_sender <> sender
                            || vs >= 0
                               && (s.A.asv_video_ssrc <> vs || s.A.asv_audio_ssrc <> audio)
                          then
                            errf ctx Agent Intent_drift subj
                              "uplink at port %d disagrees with intent (sender %d vs %d, video SSRC %#x vs %#x)"
                              port sender s.A.asv_sender vs s.A.asv_video_ssrc)
                    expected_streams;
                  List.iter
                    (fun (s : A.stream_view) ->
                      if
                        not
                          (List.exists
                             (fun (port, _, _, _) -> port = s.A.asv_uplink_port)
                             expected_streams)
                      then
                        errf ctx Agent Intent_drift subj
                          "agent carries an uplink at port %d (sender %d) the controller does not intend"
                          s.A.asv_uplink_port s.A.asv_sender)
                    am.A.amv_streams))
        mv.C.cmv_sites)
    intent.C.in_meetings;
  List.iter
    (fun sw ->
      if dead sw.sw_index then ()
      else
      List.iter
        (fun (am : A.meeting_view) ->
          let referenced =
            List.exists
              (fun (mv : C.meeting_view) ->
                List.exists
                  (fun (idx, amid) -> idx = sw.sw_index && amid = am.A.amv_id)
                  mv.C.cmv_sites)
              intent.C.in_meetings
          in
          if not referenced then
            errf ctx Agent Intent_drift
              (Printf.sprintf "sw%d/meeting:%d" sw.sw_index am.A.amv_id)
              "agent meeting is not part of any controller meeting")
        sw.sw_agent_meetings)
    snap.snap_switches;
  List.iter
    (fun (r : C.relay_view) ->
      if r.C.rv_egress_port < 0 then
        errf ctx Controller Intent_drift
          (Printf.sprintf "relay:%d->%d" r.C.rv_src r.C.rv_dst)
          "relay receiver for meeting %d has no egress port allocated" r.C.rv_meeting)
    intent.C.in_relays

(* --- PRE fan-out cache re-audit ---------------------------------------------

   The data plane serves replication results from a memo table keyed by
   the packet metadata tuple; the invalidation discipline (flush on every
   tree/node/L2-XID mutation) is supposed to make a stale entry
   impossible. Re-derive every resident entry from the live trees and
   diff — the cache-coherence analogue of the behavioural reachability
   check. *)

(* Traced packets whose fan-out was served for this exact cache key: the
   per-packet timelines that let an operator see where a stale entry's
   replicas actually went. *)
let fanout_trace_ids ~mgid ~l1_xid ~rid ~l2_xid =
  let module Tr = Scallop_obs.Trace in
  let matches (e : Tr.event) =
    e.Tr.name = "pre_fanout" && e.Tr.trace >= 0
    && List.for_all
         (fun (k, v) ->
           match List.assoc_opt k e.Tr.args with Some (Tr.I x) -> x = v | _ -> false)
         [ ("mgid", mgid); ("l1_xid", l1_xid); ("rid", rid); ("l2_xid", l2_xid) ]
  in
  List.sort_uniq compare
    (List.filter_map
       (fun e -> if matches e then Some e.Tr.trace else None)
       (Tr.events ()))

let check_pre_cache ctx sw =
  P.iter_cache sw.sw_pre (fun ~mgid ~l1_xid ~rid ~l2_xid ~replicas ->
      let fresh = P.replicate sw.sw_pre ~mgid ~l1_xid ~rid ~l2_xid in
      if Array.to_list replicas <> fresh then
        errf_traced ctx
          ~trace_ids:(fanout_trace_ids ~mgid ~l1_xid ~rid ~l2_xid)
          Pre Stale_pre_cache
          (Printf.sprintf "sw%d/pre-cache:%#x" sw.sw_index mgid)
          "cached fan-out for (mgid=%#x, l1_xid=%d, rid=%d, l2_xid=%d) has %d \
           replicas; recomputing from the live trees yields %d — invalidation \
           discipline violated"
          mgid l1_xid rid l2_xid (Array.length replicas) (List.length fresh))

(* --- entry points ------------------------------------------------------------ *)

let check ?(totals = R.tofino2) snap =
  let ctx = { acc = [] } in
  List.iter
    (fun sw ->
      check_pre ctx sw;
      check_pre_cache ctx sw;
      check_xids ctx sw;
      if not (dead_in snap.snap_intent sw.sw_index) then
        List.iter (check_uplink ctx snap.snap_intent sw) sw.sw_uplinks;
      check_legs ctx sw;
      check_feedback ctx sw;
      check_tables ctx sw;
      check_stream_indices ctx sw;
      check_resources ctx ~totals sw;
      check_shadow ctx sw)
    snap.snap_switches;
  check_intent ctx snap;
  List.rev ctx.acc

let verify ?totals ctrl = check ?totals (snapshot ctrl)

(* Structural hash of the pure-data projection of the snapshot triple —
   live [Trees.t]/[Pre.t] handles and the resource program are excluded
   (they are derived or carry closures). Two schedules converging to the
   same controller intent + agent shadow + data-plane tables hash equal,
   which is what the explorer's state-dedup pruning keys on. *)
let state_hash snap =
  let pure_switch sw =
    ( sw.sw_index,
      sw.sw_agent_meetings,
      sw.sw_uplinks,
      sw.sw_legs,
      sw.sw_feedback,
      sw.sw_stream_free,
      sw.sw_stream_next,
      sw.sw_l2_refs,
      sw.sw_pre_state.ps_nodes,
      sw.sw_pre_state.ps_trees,
      sw.sw_pre_state.ps_l2_xids )
  in
  Hashtbl.hash_param 256 1024
    (snap.snap_intent, List.map pure_switch snap.snap_switches)

let assert_clean ?(what = "state verification") ctrl =
  match errors (verify ctrl) with
  | [] -> ()
  | errs ->
      failwith
        (Printf.sprintf "%s: %d invariant violation(s)\n%s" what (List.length errs)
           (report errs))

(* --- anti-entropy -------------------------------------------------------------

   Periodic reconciliation: verify, replay intent onto every reachable
   switch an error finding implicates, verify again. Per-switch finding
   subjects follow the ["sw<idx>/..."] convention, which is how a finding
   names its repair target; controller-only findings (bad member records)
   have no switch to repair and are left to surface. *)

type repair_report = {
  rr_before : finding list;
  rr_repairs : (int * int option) list;
  rr_after : finding list;
}

let finding_switch f =
  try Some (Scanf.sscanf f.subject "sw%d/" (fun i -> i))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let reconcile ?totals ctrl =
  let before = check ?totals (snapshot ctrl) in
  let targets =
    errors before
    |> List.filter_map finding_switch
    |> List.sort_uniq compare
    |> List.filter (fun idx -> C.agent_health ctrl idx <> C.Dead)
  in
  let repairs = List.map (fun idx -> (idx, C.resync_switch ctrl idx)) targets in
  let after = if repairs = [] then before else check ?totals (snapshot ctrl) in
  { rr_before = before; rr_repairs = repairs; rr_after = after }

(* --- controller cluster invariants -------------------------------------------

   Two invariants tie the fault-tolerance design together. First, at
   most one live instance may hold the Acting role at a quiescent point
   — the lease check is run here first, so a fenced-out primary that
   has not written since its deposition gets its chance to notice
   before being counted (under [Mutation.Skip_fencing_check] the lease
   check is inert and a genuine split brain surfaces). Second, the
   journal must be a faithful record of intent: a standby that has
   applied every entry must reconstruct the acting primary's
   introspection state exactly. *)

let check_cluster cluster =
  let module Cl = Scallop.Cluster in
  let ctx = { acc = [] } in
  let insts = [ Cl.primary cluster; Cl.standby cluster ] in
  List.iter (fun c -> if C.role c = C.Acting then C.refresh_role c) insts;
  let acting = List.filter (fun c -> C.role c = C.Acting && C.alive c) insts in
  (match acting with
  | _ :: _ :: _ ->
      errf ctx Controller Split_brain "cluster/roles"
        "multiple live acting primaries: %s — fencing failed to depose the old \
         primary"
        (String.concat ", "
           (List.map
              (fun c -> Printf.sprintf "%s(fence=%d)" (C.label c) (C.fence c))
              acting))
  | _ -> ());
  (match (Cl.standby_instance cluster, acting) with
  | Some sb, [ act ] ->
      ignore (C.apply_tail sb);
      let fa = C.intent_fingerprint act and fs = C.intent_fingerprint sb in
      if fa <> fs then
        errf ctx Controller Journal_drift "cluster/journal"
          "caught-up standby %s (applied=%d) does not reproduce acting %s \
           (fence=%d): journal replay diverges from live intent"
          (C.label sb) (C.journal_applied sb) (C.label act) (C.fence act)
  | _ -> ());
  List.rev ctx.acc
