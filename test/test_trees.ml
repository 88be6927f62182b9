(* Replication-tree design tests (paper §6.1, Fig. 11): routing metadata,
   PRE-level delivery, cross-meeting isolation, targets, migration. *)

module Trees = Scallop.Trees
module Pre = Tofino.Pre
module Dd = Av1.Dd

let setup () =
  let pre = Pre.create () in
  (pre, Trees.create pre)

(* Resolve a meeting's route for one packet into delivered participant ids. *)
let deliveries pre t handle ~sender ~layer =
  match Trees.route_media t handle ~sender ~layer with
  | Trees.No_receivers -> []
  | Trees.Unicast { receiver; _ } -> [ receiver ]
  | Trees.Replicate { mgid; l1_xid; rid; l2_xid } ->
      Pre.replicate pre ~mgid ~l1_xid ~rid ~l2_xid
      |> List.map (fun (r : Pre.replica) -> Trees.receiver_of_replica t handle ~mgid ~rid:r.Pre.rid)
      |> List.filter (fun pid -> pid >= 0)
      |> List.sort compare

let participants n = List.init n (fun i -> (i, 100 + i))

(* --- two-party -------------------------------------------------------------------- *)

let two_party_unicast () =
  let _pre, t = setup () in
  let h = Trees.register_meeting t Trees.Two_party ~participants:(participants 2) ~senders:[ 0; 1 ] in
  (match Trees.route_media t h ~sender:0 ~layer:Dd.T0 with
  | Trees.Unicast { receiver; port } ->
      Alcotest.(check int) "peer" 1 receiver;
      Alcotest.(check int) "port" 101 port
  | _ -> Alcotest.fail "expected unicast");
  match Trees.route_media t h ~sender:1 ~layer:Dd.T2 with
  | Trees.Unicast { receiver; _ } -> Alcotest.(check int) "reverse" 0 receiver
  | _ -> Alcotest.fail "expected unicast"

let two_party_no_trees () =
  let pre, t = setup () in
  let _ = Trees.register_meeting t Trees.Two_party ~participants:(participants 2) ~senders:[ 0 ] in
  Alcotest.(check int) "no PRE trees" 0 (Pre.trees_used pre)

let two_party_size_checked () =
  let _pre, t = setup () in
  Alcotest.(check bool) "3 participants rejected" true
    (try
       ignore (Trees.register_meeting t Trees.Two_party ~participants:(participants 3) ~senders:[]);
       false
     with Invalid_argument _ -> true)

(* --- NRA ----------------------------------------------------------------------------- *)

let nra_delivers_to_others () =
  let pre, t = setup () in
  let h = Trees.register_meeting t Trees.Nra ~participants:(participants 4) ~senders:[ 0; 1; 2; 3 ] in
  Alcotest.(check (list int)) "sender 0 excluded" [ 1; 2; 3 ]
    (deliveries pre t h ~sender:0 ~layer:Dd.T0);
  Alcotest.(check (list int)) "sender 2 excluded" [ 0; 1; 3 ]
    (deliveries pre t h ~sender:2 ~layer:Dd.T2)

let nra_single_tree_for_two_meetings () =
  let pre, t = setup () in
  let _h1 = Trees.register_meeting t Trees.Nra ~participants:(participants 3) ~senders:[ 0 ] in
  let _h2 =
    Trees.register_meeting t Trees.Nra
      ~participants:[ (10, 200); (11, 201) ]
      ~senders:[ 10 ]
  in
  Alcotest.(check int) "m=2 aggregation" 1 (Pre.trees_used pre)

let nra_cross_meeting_isolation () =
  let pre, t = setup () in
  let h1 = Trees.register_meeting t Trees.Nra ~participants:(participants 3) ~senders:[ 0 ] in
  let h2 =
    Trees.register_meeting t Trees.Nra
      ~participants:[ (10, 200); (11, 201); (12, 202) ]
      ~senders:[ 10 ]
  in
  Alcotest.(check (list int)) "meeting 1 stays local" [ 1; 2 ]
    (deliveries pre t h1 ~sender:0 ~layer:Dd.T0);
  Alcotest.(check (list int)) "meeting 2 stays local" [ 11; 12 ]
    (deliveries pre t h2 ~sender:10 ~layer:Dd.T0)

let nra_all_layers_delivered () =
  let pre, t = setup () in
  let h = Trees.register_meeting t Trees.Nra ~participants:(participants 3) ~senders:[ 0 ] in
  List.iter
    (fun layer ->
      Alcotest.(check (list int)) "layer delivered" [ 1; 2 ]
        (deliveries pre t h ~sender:0 ~layer))
    [ Dd.T0; Dd.T1; Dd.T2 ]

(* --- RA-R ------------------------------------------------------------------------------ *)

let ra_r_layer_suppression () =
  let pre, t = setup () in
  let h = Trees.register_meeting t Trees.Ra_r ~participants:(participants 3) ~senders:[ 0 ] in
  Trees.set_receiver_target t h ~receiver:2 Dd.DT_7_5fps;
  Alcotest.(check (list int)) "T0 to everyone" [ 1; 2 ] (deliveries pre t h ~sender:0 ~layer:Dd.T0);
  Alcotest.(check (list int)) "T1 skips reduced" [ 1 ] (deliveries pre t h ~sender:0 ~layer:Dd.T1);
  Alcotest.(check (list int)) "T2 skips reduced" [ 1 ] (deliveries pre t h ~sender:0 ~layer:Dd.T2)

let ra_r_three_trees () =
  let pre, t = setup () in
  let _ = Trees.register_meeting t Trees.Ra_r ~participants:(participants 3) ~senders:[ 0 ] in
  Alcotest.(check int) "q trees" 3 (Pre.trees_used pre)

let ra_r_target_restore () =
  let pre, t = setup () in
  let h = Trees.register_meeting t Trees.Ra_r ~participants:(participants 3) ~senders:[ 0 ] in
  Trees.set_receiver_target t h ~receiver:1 Dd.DT_7_5fps;
  Trees.set_receiver_target t h ~receiver:1 Dd.DT_30fps;
  Alcotest.(check (list int)) "restored" [ 1; 2 ] (deliveries pre t h ~sender:0 ~layer:Dd.T2)

(* --- RA-SR ------------------------------------------------------------------------------ *)

let ra_sr_pair_targets () =
  let pre, t = setup () in
  let h = Trees.register_meeting t Trees.Ra_sr ~participants:(participants 3) ~senders:[ 0; 1 ] in
  (* receiver 2 takes full quality from sender 0 but only base from 1 *)
  Trees.set_pair_target t h ~sender:1 ~receiver:2 Dd.DT_7_5fps;
  Alcotest.(check (list int)) "sender 0 T2 reaches 2" [ 1; 2 ]
    (deliveries pre t h ~sender:0 ~layer:Dd.T2);
  Alcotest.(check (list int)) "sender 1 T2 skips 2" [ 0 ]
    (deliveries pre t h ~sender:1 ~layer:Dd.T2);
  Alcotest.(check (list int)) "sender 1 T0 reaches 2" [ 0; 2 ]
    (deliveries pre t h ~sender:1 ~layer:Dd.T0)

let ra_sr_pair_target_needs_design () =
  let _pre, t = setup () in
  let h = Trees.register_meeting t Trees.Nra ~participants:(participants 3) ~senders:[ 0 ] in
  Alcotest.(check bool) "rejected under NRA" true
    (try
       Trees.set_pair_target t h ~sender:0 ~receiver:1 Dd.DT_15fps;
       false
     with Invalid_argument _ -> true)

let ra_sr_sender_isolation () =
  (* two senders share each tree; one sender's packets must not take the
     branches of the other sender's receivers *)
  let pre, t = setup () in
  let h = Trees.register_meeting t Trees.Ra_sr ~participants:(participants 4) ~senders:[ 0; 1 ] in
  Alcotest.(check (list int)) "sender 0" [ 1; 2; 3 ] (deliveries pre t h ~sender:0 ~layer:Dd.T0);
  Alcotest.(check (list int)) "sender 1" [ 0; 2; 3 ] (deliveries pre t h ~sender:1 ~layer:Dd.T0)

(* --- membership / lifecycle ----------------------------------------------------------------- *)

let add_remove_participant () =
  let pre, t = setup () in
  let h = Trees.register_meeting t Trees.Nra ~participants:(participants 3) ~senders:[ 0 ] in
  Trees.add_participant t h (7, 107) ~sends:false;
  Alcotest.(check (list int)) "new member receives" [ 1; 2; 7 ]
    (deliveries pre t h ~sender:0 ~layer:Dd.T0);
  Trees.remove_participant t h 1;
  Alcotest.(check (list int)) "removed member gone" [ 2; 7 ]
    (deliveries pre t h ~sender:0 ~layer:Dd.T0)

let unregister_frees_trees () =
  let pre, t = setup () in
  let h1 = Trees.register_meeting t Trees.Ra_r ~participants:(participants 3) ~senders:[ 0 ] in
  let h2 =
    Trees.register_meeting t Trees.Ra_r ~participants:[ (10, 200); (11, 201) ] ~senders:[ 10 ]
  in
  Alcotest.(check int) "shared trees" 3 (Pre.trees_used pre);
  Trees.unregister_meeting t h1;
  Alcotest.(check int) "still used by second" 3 (Pre.trees_used pre);
  Trees.unregister_meeting t h2;
  Alcotest.(check int) "all freed" 0 (Pre.trees_used pre)

let migration_preserves_targets () =
  let pre, t = setup () in
  let h = Trees.register_meeting t Trees.Nra ~participants:(participants 3) ~senders:[ 0 ] in
  Trees.set_receiver_target t h ~receiver:2 Dd.DT_15fps;
  let h' = Trees.migrate t h Trees.Ra_r in
  Alcotest.(check bool) "design" true (Trees.design_of h' = Trees.Ra_r);
  Alcotest.(check (list int)) "target survived migration" [ 1 ]
    (deliveries pre t h' ~sender:0 ~layer:Dd.T2);
  Alcotest.(check (list int)) "members survived" [ 1; 2 ]
    (deliveries pre t h' ~sender:0 ~layer:Dd.T0)

let capacity_exhaustion () =
  let pre = Pre.create ~limits:{ Pre.max_trees = 2; max_l1_nodes = 1000; max_rids_per_tree = 64 } () in
  let t = Trees.create pre in
  (* RA-R needs 3 trees but only 2 exist *)
  Alcotest.(check bool) "raises Capacity" true
    (try
       ignore (Trees.register_meeting t Trees.Ra_r ~participants:(participants 3) ~senders:[ 0 ]);
       false
     with Trees.Capacity _ -> true)

(* Model-based property: under RA-R with arbitrary receiver targets, a
   packet of layer L reaches exactly the other participants whose target
   admits L. *)
let prop_ra_r_deliveries_match_model =
  QCheck.Test.make ~count:200 ~name:"RA-R deliveries = policy model"
    QCheck.(pair (int_range 2 8) (list_of_size Gen.(0 -- 8) (int_bound 2)))
    (fun (n, target_idxs) ->
      let pre, t = setup () in
      let h = Trees.register_meeting t Trees.Ra_r ~participants:(participants n) ~senders:[ 0 ] in
      let targets =
        List.mapi (fun i idx -> (i + 1, Dd.target_of_index idx))
          (List.filteri (fun i _ -> i < n - 1) target_idxs)
      in
      List.iter (fun (r, dt) -> Trees.set_receiver_target t h ~receiver:r dt) targets;
      let target_of r =
        Option.value (List.assoc_opt r targets) ~default:Dd.DT_30fps
      in
      List.for_all
        (fun layer ->
          let expected =
            List.init (n - 1) (fun i -> i + 1)
            |> List.filter (fun r -> Dd.target_includes (target_of r) layer)
          in
          deliveries pre t h ~sender:0 ~layer = expected)
        [ Dd.T0; Dd.T1; Dd.T2 ])

let qsuite = List.map Fixed_seed.to_alcotest [ prop_ra_r_deliveries_match_model ]

let () =
  Alcotest.run "trees"
    [
      ( "two-party",
        [
          Alcotest.test_case "unicast" `Quick two_party_unicast;
          Alcotest.test_case "no trees" `Quick two_party_no_trees;
          Alcotest.test_case "size checked" `Quick two_party_size_checked;
        ] );
      ( "nra",
        [
          Alcotest.test_case "delivers to others" `Quick nra_delivers_to_others;
          Alcotest.test_case "m=2 aggregation" `Quick nra_single_tree_for_two_meetings;
          Alcotest.test_case "cross-meeting isolation" `Quick nra_cross_meeting_isolation;
          Alcotest.test_case "all layers delivered" `Quick nra_all_layers_delivered;
        ] );
      ( "ra-r",
        [
          Alcotest.test_case "layer suppression" `Quick ra_r_layer_suppression;
          Alcotest.test_case "three trees" `Quick ra_r_three_trees;
          Alcotest.test_case "target restore" `Quick ra_r_target_restore;
        ] );
      ( "ra-sr",
        [
          Alcotest.test_case "pair targets" `Quick ra_sr_pair_targets;
          Alcotest.test_case "needs RA-SR design" `Quick ra_sr_pair_target_needs_design;
          Alcotest.test_case "sender isolation" `Quick ra_sr_sender_isolation;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "add/remove participant" `Quick add_remove_participant;
          Alcotest.test_case "unregister frees trees" `Quick unregister_frees_trees;
          Alcotest.test_case "migration preserves targets" `Quick migration_preserves_targets;
          Alcotest.test_case "capacity exhaustion" `Quick capacity_exhaustion;
        ] );
      ("properties", qsuite);
    ]
