(* Tofino switch-model tests: PRE semantics (paper §6.3, Fig. 13),
   match-action tables, registers, and the resource model. *)

module Pre = Tofino.Pre
module Table = Tofino.Table
module Register = Tofino.Register
module Resources = Tofino.Resources

let small = { Pre.max_trees = 4; max_l1_nodes = 16; max_rids_per_tree = 8 }

let ports replicas = List.map (fun (r : Pre.replica) -> r.Pre.port) replicas |> List.sort compare

(* --- PRE construction ---------------------------------------------------------- *)

let pre_basic_replication () =
  let pre = Pre.create () in
  let nodes = List.init 3 (fun i -> Pre.create_l1_node pre ~rid:i ~ports:[ 10 + i ] ()) in
  Pre.create_tree pre ~mgid:1 ~nodes;
  let replicas = Pre.replicate pre ~mgid:1 ~l1_xid:0 ~rid:99 ~l2_xid:0 in
  Alcotest.(check (list int)) "all ports" [ 10; 11; 12 ] (ports replicas)

let pre_unknown_mgid () =
  let pre = Pre.create () in
  Alcotest.(check (list int)) "empty" [] (ports (Pre.replicate pre ~mgid:42 ~l1_xid:0 ~rid:0 ~l2_xid:0))

let pre_l1_pruning () =
  (* two meetings in one tree, separated by L1-XIDs (paper: m = 2) *)
  let pre = Pre.create () in
  let m1 = List.init 2 (fun i -> Pre.create_l1_node pre ~rid:i ~l1_xid:1 ~prune_enabled:true ~ports:[ 100 + i ] ()) in
  let m2 = List.init 2 (fun i -> Pre.create_l1_node pre ~rid:(10 + i) ~l1_xid:2 ~prune_enabled:true ~ports:[ 200 + i ] ()) in
  Pre.create_tree pre ~mgid:5 ~nodes:(m1 @ m2);
  (* a packet of meeting 1 sets l1_xid = 2 to exclude meeting 2's nodes *)
  let to_m1 = Pre.replicate pre ~mgid:5 ~l1_xid:2 ~rid:99 ~l2_xid:0 in
  Alcotest.(check (list int)) "meeting 1 only" [ 100; 101 ] (ports to_m1);
  let to_m2 = Pre.replicate pre ~mgid:5 ~l1_xid:1 ~rid:99 ~l2_xid:0 in
  Alcotest.(check (list int)) "meeting 2 only" [ 200; 201 ] (ports to_m2)

let pre_prune_disabled_ignores_xid () =
  let pre = Pre.create () in
  let n = Pre.create_l1_node pre ~rid:1 ~l1_xid:7 ~prune_enabled:false ~ports:[ 1 ] () in
  Pre.create_tree pre ~mgid:1 ~nodes:[ n ];
  Alcotest.(check int) "not pruned" 1
    (List.length (Pre.replicate pre ~mgid:1 ~l1_xid:7 ~rid:0 ~l2_xid:0))

let pre_l2_pruning_self_suppression () =
  (* the sender's own copy is suppressed by (RID, egress-port) exclusion *)
  let pre = Pre.create () in
  let nodes = List.init 3 (fun i -> Pre.create_l1_node pre ~rid:i ~ports:[ 10 + i ] ()) in
  Pre.create_tree pre ~mgid:1 ~nodes;
  Pre.set_l2_xid_ports pre ~xid:77 ~ports:[ 11 ];
  (* sender is the node with rid 1 / port 11 *)
  let replicas = Pre.replicate pre ~mgid:1 ~l1_xid:0 ~rid:1 ~l2_xid:77 in
  Alcotest.(check (list int)) "self suppressed" [ 10; 12 ] (ports replicas)

let pre_l2_requires_rid_match () =
  let pre = Pre.create () in
  let nodes = List.init 2 (fun i -> Pre.create_l1_node pre ~rid:i ~ports:[ 10 + i ] ()) in
  Pre.create_tree pre ~mgid:1 ~nodes;
  Pre.set_l2_xid_ports pre ~xid:77 ~ports:[ 10; 11 ];
  (* RID 5 matches no node, so the L2 exclusion never applies *)
  Alcotest.(check int) "no suppression without rid match" 2
    (List.length (Pre.replicate pre ~mgid:1 ~l1_xid:0 ~rid:5 ~l2_xid:77))

(* --- PRE resource limits -------------------------------------------------------- *)

let pre_tree_limit () =
  let pre = Pre.create ~limits:small () in
  for m = 1 to 4 do
    Pre.create_tree pre ~mgid:m ~nodes:[]
  done;
  Alcotest.(check bool) "fifth tree refused" true
    (try
       Pre.create_tree pre ~mgid:5 ~nodes:[];
       false
     with Pre.Resource_exhausted _ -> true)

let pre_node_limit () =
  let pre = Pre.create ~limits:small () in
  for _ = 1 to 16 do
    ignore (Pre.create_l1_node pre ~rid:0 ~ports:[ 1 ] ())
  done;
  Alcotest.(check bool) "17th node refused" true
    (try
       ignore (Pre.create_l1_node pre ~rid:0 ~ports:[ 1 ] ());
       false
     with Pre.Resource_exhausted _ -> true)

let pre_rid_uniqueness () =
  let pre = Pre.create () in
  let a = Pre.create_l1_node pre ~rid:3 ~ports:[ 1 ] () in
  let b = Pre.create_l1_node pre ~rid:3 ~ports:[ 2 ] () in
  Alcotest.(check bool) "duplicate rid in one tree rejected" true
    (try
       Pre.create_tree pre ~mgid:1 ~nodes:[ a; b ];
       false
     with Invalid_argument _ -> true)

let pre_destroy_frees () =
  let pre = Pre.create ~limits:small () in
  let n = Pre.create_l1_node pre ~rid:0 ~ports:[ 1 ] () in
  Pre.create_tree pre ~mgid:1 ~nodes:[ n ];
  Alcotest.(check int) "one tree" 1 (Pre.trees_used pre);
  Pre.destroy_tree pre 1;
  Alcotest.(check int) "freed" 0 (Pre.trees_used pre);
  (* the node is free-standing again and can join a new tree *)
  Pre.create_tree pre ~mgid:2 ~nodes:[ n ];
  Alcotest.(check int) "reused" 1 (Pre.trees_used pre)

let pre_node_membership_exclusive () =
  let pre = Pre.create () in
  let n = Pre.create_l1_node pre ~rid:0 ~ports:[ 1 ] () in
  Pre.create_tree pre ~mgid:1 ~nodes:[ n ];
  Alcotest.(check bool) "cannot join two trees" true
    (try
       Pre.create_tree pre ~mgid:2 ~nodes:[ n ];
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "cannot destroy while member" true
    (try
       Pre.destroy_l1_node pre n;
       false
     with Invalid_argument _ -> true)

let pre_dynamic_membership () =
  let pre = Pre.create () in
  Pre.create_tree pre ~mgid:1 ~nodes:[];
  let n = Pre.create_l1_node pre ~rid:0 ~ports:[ 5 ] () in
  Pre.add_node_to_tree pre 1 n;
  Alcotest.(check int) "added" 1 (List.length (Pre.replicate pre ~mgid:1 ~l1_xid:0 ~rid:9 ~l2_xid:0));
  Pre.remove_node_from_tree pre 1 n;
  Alcotest.(check int) "removed" 0 (List.length (Pre.replicate pre ~mgid:1 ~l1_xid:0 ~rid:9 ~l2_xid:0))

let pre_insertion_order_preserved () =
  let pre = Pre.create () in
  Pre.create_tree pre ~mgid:1 ~nodes:[];
  let ns = List.map (fun r -> Pre.create_l1_node pre ~rid:r ~ports:[ 50 + r ] ()) [ 3; 1; 2 ] in
  List.iter (fun n -> Pre.add_node_to_tree pre 1 n) ns;
  Alcotest.(check (list int)) "members in insertion order" ns (Pre.tree_nodes pre 1);
  Alcotest.(check (list int)) "replicas in insertion order" [ 53; 51; 52 ]
    (List.map (fun (r : Pre.replica) -> r.Pre.port) (Pre.replicate pre ~mgid:1 ~l1_xid:0 ~rid:9 ~l2_xid:0))

(* --- fan-out cache ------------------------------------------------------------- *)

let cached pre ~mgid ~l1_xid ~rid ~l2_xid =
  Array.to_list (Pre.replicate_cached pre ~mgid ~l1_xid ~rid ~l2_xid)

(* the registry series of the default instance ([pre="pre0"]) *)
let cache what = Scallop_obs.Metrics.read ~labels:[ ("pre", "pre0") ] ("scallop_pre_cache_" ^ what)

let pre_cache_hit_miss () =
  let pre = Pre.create () in
  let nodes = List.init 3 (fun i -> Pre.create_l1_node pre ~rid:i ~ports:[ 10 + i ] ()) in
  Pre.create_tree pre ~mgid:1 ~nodes;
  let spec = Pre.replicate pre ~mgid:1 ~l1_xid:0 ~rid:99 ~l2_xid:0 in
  let first = cached pre ~mgid:1 ~l1_xid:0 ~rid:99 ~l2_xid:0 in
  let second = cached pre ~mgid:1 ~l1_xid:0 ~rid:99 ~l2_xid:0 in
  Alcotest.(check bool) "cached = spec" true (first = spec && second = spec);
  Alcotest.(check int) "one miss" 1 (cache "misses");
  Alcotest.(check int) "one hit" 1 (cache "hits");
  Alcotest.(check int) "one resident entry" 1 (cache "entries");
  (* a distinct metadata tuple is its own entry *)
  ignore (cached pre ~mgid:1 ~l1_xid:0 ~rid:1 ~l2_xid:0);
  Alcotest.(check int) "second entry" 2 (cache "entries")

let pre_cache_invalidated_on_mutation () =
  let pre = Pre.create () in
  Pre.create_tree pre ~mgid:1 ~nodes:[];
  let a = Pre.create_l1_node pre ~rid:0 ~ports:[ 10 ] () in
  let b = Pre.create_l1_node pre ~rid:1 ~ports:[ 11 ] () in
  Pre.add_node_to_tree pre 1 a;
  Pre.add_node_to_tree pre 1 b;
  let before = cached pre ~mgid:1 ~l1_xid:0 ~rid:99 ~l2_xid:0 in
  Alcotest.(check int) "both ports" 2 (List.length before);
  (* every mutation class must flush the memo table *)
  Pre.remove_node_from_tree pre 1 b;
  Alcotest.(check int) "flush counted" 1 (cache "invalidations");
  Alcotest.(check int) "no resident entries" 0 (cache "entries");
  let after = cached pre ~mgid:1 ~l1_xid:0 ~rid:99 ~l2_xid:0 in
  Alcotest.(check bool) "stale entry not served" true
    (after = Pre.replicate pre ~mgid:1 ~l1_xid:0 ~rid:99 ~l2_xid:0
    && List.length after = 1);
  (* L2 exclusion-set updates are mutations too *)
  ignore (cached pre ~mgid:1 ~l1_xid:0 ~rid:0 ~l2_xid:7);
  Pre.set_l2_xid_ports pre ~xid:7 ~ports:[ 10 ];
  Alcotest.(check int) "l2 write flushes" 0 (cache "entries");
  Alcotest.(check int) "exclusion applies" 0
    (List.length (cached pre ~mgid:1 ~l1_xid:0 ~rid:0 ~l2_xid:7));
  (* flushing an empty cache is not counted as an invalidation *)
  let inv = cache "invalidations" in
  Pre.destroy_tree pre 1;
  Pre.set_l2_xid_ports pre ~xid:8 ~ports:[ 1 ];
  Alcotest.(check int) "empty flush not counted" (inv + 1) (cache "invalidations")

(* --- qcheck: pruning is exact --------------------------------------------------- *)

let prop_pruning_exact =
  QCheck.Test.make ~count:200 ~name:"replicas = members - own meeting tag - sender port"
    QCheck.(pair (int_bound 1) (int_bound 3))
    (fun (packet_meeting, sender_idx) ->
      let pre = Pre.create () in
      (* 2 meetings x 4 participants in one tree, tags 1 and 2 *)
      let node meeting i =
        Pre.create_l1_node pre
          ~rid:((meeting * 100) + i)
          ~l1_xid:(meeting + 1) ~prune_enabled:true
          ~ports:[ (meeting * 1000) + i ]
          ()
      in
      let nodes = List.concat_map (fun m -> List.init 4 (node m)) [ 0; 1 ] in
      Pre.create_tree pre ~mgid:1 ~nodes;
      let sender_port = (packet_meeting * 1000) + sender_idx in
      Pre.set_l2_xid_ports pre ~xid:sender_port ~ports:[ sender_port ];
      let replicas =
        Pre.replicate pre ~mgid:1
          ~l1_xid:(2 - packet_meeting) (* exclude the other meeting *)
          ~rid:((packet_meeting * 100) + sender_idx)
          ~l2_xid:sender_port
      in
      let expected =
        List.init 4 (fun i -> (packet_meeting * 1000) + i)
        |> List.filter (fun p -> p <> sender_port)
      in
      ports replicas = expected)

(* --- tables ----------------------------------------------------------------------- *)

let table_capacity () =
  let t = Table.create ~name:"t" ~capacity:2 in
  Alcotest.(check bool) "insert 1" true (Table.insert t 1 "a" = Ok ());
  Alcotest.(check bool) "insert 2" true (Table.insert t 2 "b" = Ok ());
  Alcotest.(check bool) "full" true (Table.insert t 3 "c" = Error `Table_full);
  Alcotest.(check bool) "replace ok when full" true (Table.insert t 1 "a2" = Ok ());
  Alcotest.(check (option string)) "replaced" (Some "a2") (Table.lookup t 1);
  Table.remove t 2;
  Alcotest.(check bool) "insert after remove" true (Table.insert t 3 "c" = Ok ())

let table_utilization () =
  let t = Table.create ~name:"t" ~capacity:4 in
  ignore (Table.insert t 1 ());
  Alcotest.(check (float 1e-9)) "25%" 0.25 (Table.utilization t)

(* --- registers ---------------------------------------------------------------------- *)

let register_rw () =
  let r = Register.create ~name:"r" ~cells:4 in
  Register.write r 2 0x1FFFFFFFF;
  Alcotest.(check int) "32-bit mask" 0xFFFFFFFF (Register.read r 2);
  Register.clear_index r 2;
  Alcotest.(check int) "cleared" 0 (Register.read r 2)

let register_bounds () =
  let r = Register.create ~name:"r" ~cells:4 in
  Alcotest.(check bool) "oob" true
    (try
       ignore (Register.read r 4);
       false
     with Invalid_argument _ -> true)

(* --- resources ------------------------------------------------------------------------ *)

let demo_program =
  {
    Resources.ingress_parser_depth = 27;
    egress_parser_depth = 7;
    ingress_stages = 7;
    egress_stages = 5;
    tables =
      [
        { Resources.t_name = "a"; entries = 1024; key_bytes = 4; value_bytes = 8; ternary = false };
        { Resources.t_name = "b"; entries = 512; key_bytes = 6; value_bytes = 2; ternary = true };
      ];
    registers = [ { Resources.r_name = "r"; r_cells = 65536; width_bytes = 4 } ];
    phv_bits_used = 900;
    vliw_used = 40;
  }

let resources_report_complete () =
  let rows = Resources.report demo_program in
  let names = List.map (fun (r : Resources.row) -> r.Resources.resource) rows in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " present") true (List.mem expected names))
    [ "Parsing depth"; "No. of stages"; "PHV containers"; "SRAM"; "TCAM"; "Hash bits" ]

let resources_stage_check () =
  Alcotest.(check bool) "fits" true (Resources.stages_ok demo_program);
  Alcotest.(check bool) "too deep" false
    (Resources.stages_ok { demo_program with ingress_stages = 99 })

(* --- parser (Appendix E) --------------------------------------------------- *)

module Parser = Tofino.Parser

let mk_rtp ?(exts = []) () =
  Rtp.Packet.serialize
    (Rtp.Packet.make ~extensions:exts ~payload_type:96 ~sequence:1 ~timestamp:2 ~ssrc:3
       (Bytes.create 50))

let parser_classifies () =
  (match (Parser.walk (mk_rtp ())).Parser.kind with
  | Parser.Rtp { av1_template = None; elements = 0 } -> ()
  | _ -> Alcotest.fail "plain rtp");
  let rtcp =
    Rtp.Rtcp.serialize (Rtp.Rtcp.Receiver_report { ssrc = 1; reports = [] })
  in
  (match (Parser.walk rtcp).Parser.kind with
  | Parser.Rtcp { packet_type = 201 } -> ()
  | _ -> Alcotest.fail "rtcp");
  let stun =
    Rtp.Stun.serialize (Rtp.Stun.binding_request ~transaction_id:(Bytes.make 12 'a') ())
  in
  (match (Parser.walk stun).Parser.kind with
  | Parser.Stun -> ()
  | _ -> Alcotest.fail "stun");
  match (Parser.walk (Bytes.of_string "\xFF\xFF\xFF\xFF")).Parser.kind with
  | Parser.Other -> ()
  | _ -> Alcotest.fail "garbage"

let parser_extracts_av1_template () =
  let dd =
    Av1.Dd.serialize
      {
        Av1.Dd.start_of_frame = true;
        end_of_frame = true;
        template_id = 4;
        frame_number = 9;
        structure = None;
      }
  in
  let buf = mk_rtp ~exts:[ { Rtp.Packet.id = 1; data = dd } ] () in
  match (Parser.walk buf).Parser.kind with
  | Parser.Rtp { av1_template = Some 4; elements = 1 } -> ()
  | Parser.Rtp { av1_template; elements } ->
      Alcotest.failf "template %s, elements %d"
        (match av1_template with Some t -> string_of_int t | None -> "none")
        elements
  | _ -> Alcotest.fail "not rtp"

let parser_depth_grows_with_elements () =
  let ext i = { Rtp.Packet.id = 2 + i; data = Bytes.create 3 } in
  let d0 = (Parser.walk (mk_rtp ())).Parser.depth in
  let d1 = (Parser.walk (mk_rtp ~exts:[ ext 0 ] ())).Parser.depth in
  let d3 = (Parser.walk (mk_rtp ~exts:[ ext 0; ext 1; ext 2 ] ())).Parser.depth in
  Alcotest.(check bool) "monotone" true (d0 < d1 && d1 < d3);
  Alcotest.(check bool) "bounded by graph" true (d3 <= Parser.graph_depth)

let parser_element_cap () =
  (* 12 elements: the graph stops at its 10 slots without rejecting *)
  let exts = List.init 12 (fun i -> { Rtp.Packet.id = 1 + (i mod 13); data = Bytes.create 2 }) in
  let w = Parser.walk (mk_rtp ~exts ()) in
  (match w.Parser.kind with
  | Parser.Rtp { elements; _ } ->
      Alcotest.(check int) "capped" Parser.max_extension_elements elements
  | _ -> Alcotest.fail "not rtp");
  Alcotest.(check bool) "within graph depth" true (w.Parser.depth <= Parser.graph_depth)

let parser_tracker () =
  let t = Parser.create () in
  ignore (Parser.observe t (mk_rtp ()));
  ignore (Parser.observe t (mk_rtp ~exts:[ { Rtp.Packet.id = 1; data = Bytes.create 3 } ] ()));
  Alcotest.(check int) "packets" 2 (Parser.packets t);
  Alcotest.(check bool) "mean <= max" true (Parser.mean_depth t <= float_of_int (Parser.max_depth t))

let parser_graph_depth_is_paper_value () =
  Alcotest.(check int) "27" 27 Parser.graph_depth

let qsuite = List.map Fixed_seed.to_alcotest [ prop_pruning_exact ]

let () =
  Alcotest.run "tofino"
    [
      ( "pre",
        [
          Alcotest.test_case "basic replication" `Quick pre_basic_replication;
          Alcotest.test_case "unknown mgid" `Quick pre_unknown_mgid;
          Alcotest.test_case "L1 pruning" `Quick pre_l1_pruning;
          Alcotest.test_case "prune disabled" `Quick pre_prune_disabled_ignores_xid;
          Alcotest.test_case "L2 self suppression" `Quick pre_l2_pruning_self_suppression;
          Alcotest.test_case "L2 needs rid match" `Quick pre_l2_requires_rid_match;
          Alcotest.test_case "tree limit" `Quick pre_tree_limit;
          Alcotest.test_case "node limit" `Quick pre_node_limit;
          Alcotest.test_case "rid uniqueness" `Quick pre_rid_uniqueness;
          Alcotest.test_case "destroy frees" `Quick pre_destroy_frees;
          Alcotest.test_case "exclusive membership" `Quick pre_node_membership_exclusive;
          Alcotest.test_case "dynamic membership" `Quick pre_dynamic_membership;
          Alcotest.test_case "insertion order preserved" `Quick pre_insertion_order_preserved;
          Alcotest.test_case "cache hit/miss" `Quick pre_cache_hit_miss;
          Alcotest.test_case "cache invalidated on mutation" `Quick
            pre_cache_invalidated_on_mutation;
        ] );
      ( "table",
        [
          Alcotest.test_case "capacity" `Quick table_capacity;
          Alcotest.test_case "utilization" `Quick table_utilization;
        ] );
      ( "register",
        [
          Alcotest.test_case "read/write" `Quick register_rw;
          Alcotest.test_case "bounds" `Quick register_bounds;
        ] );
      ( "parser",
        [
          Alcotest.test_case "classification" `Quick parser_classifies;
          Alcotest.test_case "av1 template extraction" `Quick parser_extracts_av1_template;
          Alcotest.test_case "depth grows with elements" `Quick parser_depth_grows_with_elements;
          Alcotest.test_case "element cap" `Quick parser_element_cap;
          Alcotest.test_case "tracker" `Quick parser_tracker;
          Alcotest.test_case "graph depth = 27" `Quick parser_graph_depth_is_paper_value;
        ] );
      ( "resources",
        [
          Alcotest.test_case "report complete" `Quick resources_report_complete;
          Alcotest.test_case "stage check" `Quick resources_stage_check;
        ] );
      ("properties", qsuite);
    ]
