(* Model-checker tests: choice-sequence plumbing, temporal combinators,
   and the acceptance gate for the interleaving explorer — with the
   heal-race fix reverted (the heal-without-quiesce mutation), a bounded
   search must re-discover the exactly-once counterexample, and
   replaying its choice sequence must reproduce it byte-identically. *)

module Choice = Scallop_mc.Choice
module Temporal = Scallop_mc.Temporal
module Rules = Scallop_mc.Rules
module Scenario = Scallop_mc.Scenario
module Explore = Scallop_mc.Explore
module Mc_json = Scallop_mc.Mc_json
module Mutation = Scallop.Mutation
module Trace = Scallop_obs.Trace

(* --- choice sequences ------------------------------------------------------ *)

let choice_forced_then_default () =
  let c = Choice.create ~forced:[| 2; 1 |] () in
  Alcotest.(check int) "forced 0" 2 (Choice.next c ~arity:3);
  Alcotest.(check int) "forced 1" 1 (Choice.next c ~arity:3);
  Alcotest.(check int) "default beyond prefix" 0 (Choice.next c ~arity:3);
  Alcotest.(check int) "consumed" 3 (Choice.length c);
  Alcotest.(check (list (pair int int)))
    "full log" [ (2, 3); (1, 3); (0, 3) ] (Choice.log c)

let choice_out_of_range_falls_back () =
  let c = Choice.create ~forced:[| 7 |] () in
  Alcotest.(check int) "out-of-range forced -> 0" 0 (Choice.next c ~arity:3)

let choice_string_round_trip () =
  let chosen = [| 1; 2; 0; 0; 2 |] in
  Alcotest.(check (array int))
    "round trip" chosen
    (Choice.of_string (Choice.to_string chosen));
  Alcotest.(check (array int)) "empty" [||] (Choice.of_string "");
  Alcotest.check_raises "junk rejected"
    (Invalid_argument "Choice.of_string: not a choice sequence") (fun () ->
      ignore (Choice.of_string "1,x,2"))

(* --- temporal combinators -------------------------------------------------- *)

let ev ?(ts = 0) name args =
  {
    Trace.ts;
    dur = 0;
    cat = "test";
    name;
    trace = 0;
    args = List.map (fun (k, v) -> (k, Trace.S v)) args;
  }

let temporal_always () =
  let rule =
    Temporal.always ~name:"no-bang" (fun ~idx:_ e ->
        if Temporal.is e "bang" then Some "saw bang" else None)
  in
  let c = Temporal.create [ rule ] in
  Temporal.feed c (ev "ok" []);
  Temporal.feed c (ev ~ts:7 "bang" []);
  match Temporal.finish c with
  | [ v ] ->
      Alcotest.(check string) "rule" "no-bang" v.Temporal.v_rule;
      Alcotest.(check int) "ts" 7 v.Temporal.v_ts;
      Alcotest.(check (list int)) "event index" [ 1 ] v.Temporal.v_events
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

let temporal_eventually () =
  let mk () =
    Temporal.eventually ~name:"ack-everything"
      ~trigger:(fun e ->
        if Temporal.is e "req" then Temporal.arg_s e "id" else None)
      ~satisfy:(fun e ->
        if Temporal.is e "ack" then Temporal.arg_s e "id" else None)
  in
  let c = Temporal.create [ mk () ] in
  Temporal.feed c (ev "req" [ ("id", "a") ]);
  Temporal.feed c (ev "ack" [ ("id", "a") ]);
  Alcotest.(check int) "satisfied" 0 (List.length (Temporal.finish c));
  let c = Temporal.create [ mk () ] in
  Temporal.feed c (ev "req" [ ("id", "b") ]);
  Alcotest.(check int) "open obligation" 1 (List.length (Temporal.finish c))

let temporal_precedes () =
  let mk () =
    Temporal.precedes ~name:"grant-before-use"
      ~first:(fun e ->
        if Temporal.is e "grant" then Temporal.arg_s e "id" else None)
      ~then_:(fun e ->
        if Temporal.is e "use" then Temporal.arg_s e "id" else None)
  in
  let c = Temporal.create [ mk () ] in
  Temporal.feed c (ev "grant" [ ("id", "a") ]);
  Temporal.feed c (ev "use" [ ("id", "a") ]);
  Alcotest.(check int) "ordered" 0 (List.length (Temporal.finish c));
  let c = Temporal.create [ mk () ] in
  Temporal.feed c (ev "use" [ ("id", "b") ]);
  Alcotest.(check int) "unordered" 1 (List.length (Temporal.finish c))

(* --- the acceptance gate --------------------------------------------------- *)

(* Keep test budgets tight: the heal race is reachable with fault-grid
   choices alone (positions 0..7), so a shallow pass over a couple dozen
   schedules finds it in a few seconds. *)
let small = { Explore.b_max_runs = 40; b_max_depth = 8; b_initial_depth = 8 }

let heal_race_rediscovered () =
  let config =
    { Scenario.default with Scenario.sc_mutations = [ Mutation.Heal_without_quiesce ] }
  in
  let result = Explore.search_scenario ~budget:small ~config () in
  match result.Explore.r_counterexample with
  | None ->
      Alcotest.failf
        "heal-without-quiesce not found in %d schedule(s)"
        result.Explore.r_stats.Explore.s_runs
  | Some o ->
      let rules =
        List.map (fun v -> v.Temporal.v_rule) o.Scenario.o_violations
      in
      Alcotest.(check bool)
        "exactly-once-effect violated" true
        (List.mem "exactly-once-effect" rules);
      Alcotest.(check bool)
        "quiet-heal violated" true
        (List.mem "quiet-heal" rules);
      (* replay the emitted choice sequence twice: same violations, same
         end state, byte-identical JSON rendering *)
      let replay () =
        Mc_json.outcome (Scenario.run ~config ~forced:o.Scenario.o_chosen ())
      in
      let a = replay () and b = replay () in
      Alcotest.(check string) "replay deterministic" a b;
      Alcotest.(check string) "replay reproduces the counterexample" (Mc_json.outcome o) a

let baseline_shallow_clean () =
  let result = Explore.search_scenario ~budget:{ small with Explore.b_max_runs = 12 } () in
  (match result.Explore.r_counterexample with
  | None -> ()
  | Some o ->
      Alcotest.failf "baseline violation: %s"
        (String.concat "; "
           (List.map
              (fun v -> v.Temporal.v_rule ^ ": " ^ v.Temporal.v_detail)
              o.Scenario.o_violations)));
  Alcotest.(check bool) "ran schedules" true (result.Explore.r_stats.Explore.s_runs > 0)

let () =
  Alcotest.run "mc"
    [
      ( "choice",
        [
          Alcotest.test_case "forced then default" `Quick choice_forced_then_default;
          Alcotest.test_case "out of range" `Quick choice_out_of_range_falls_back;
          Alcotest.test_case "string round trip" `Quick choice_string_round_trip;
        ] );
      ( "temporal",
        [
          Alcotest.test_case "always" `Quick temporal_always;
          Alcotest.test_case "eventually" `Quick temporal_eventually;
          Alcotest.test_case "precedes" `Quick temporal_precedes;
        ] );
      ( "explore",
        [
          Alcotest.test_case "heal race rediscovered and replayable" `Slow
            heal_race_rediscovered;
          Alcotest.test_case "shallow baseline clean" `Slow baseline_shallow_clean;
        ] );
    ]
