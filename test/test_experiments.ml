(* The paper's claims, checked on every `dune runtest`. Each experiment in
   the registry is computed once at `run --quick` scale and its claims
   list is evaluated; a test case fails on any claim outside its range.
   Every claim row is then written to OUT, which test/golden diffs
   against its committed .expected, so a changed reproduced number shows
   up as one changed row.

     test_experiments.exe (experiments | fig3_4) OUT

   fig3_4 is the slowest experiment, so it is its own suite and its own
   rule: dune runs it beside the rest. *)

module Claim = Experiments.Claim
module Registry = Experiments.Registry

let rows = Hashtbl.create 32

let rows_of id =
  if not (Hashtbl.mem rows id) then
    Hashtbl.replace rows id ((Option.get (Registry.find id)).check ~quick:true);
  Hashtbl.find rows id

let assert_in_range rows =
  match List.filter (fun (r : Claim.row) -> not r.ok) rows with
  | [] -> ()
  | bad -> Alcotest.fail (String.concat "\n" (List.map Claim.line bad))

(* The claims of [id], or of its one [figure]. *)
let claims ?figure id () =
  rows_of id
  |> List.filter (fun (r : Claim.row) -> Option.fold ~none:true ~some:(( = ) r.figure) figure)
  |> assert_in_range

let out_of_range_fails () =
  let gain = Claim.float "Fig 0" "gain" ~paper:"7x" ~gt:5.0 ~lt:10.0 Fun.id in
  let ok c x = (List.hd (Claim.check [ c ] x)).Claim.ok in
  Alcotest.(check (list bool)) "strict range" [ false; true; false; false ]
    (List.map (ok gain) [ 5.0; 7.0; 10.0; Float.nan ]);
  Alcotest.(check string) "range text" "(5, 10)" (List.hd (Claim.check [ gain ] 7.0)).range;
  let none = Claim.int "Fig 0" "freezes" ~paper:"none" ~eq:0 Fun.id in
  Alcotest.(check (list bool)) "degenerate range" [ true; false ] (List.map (ok none) [ 0; 1 ]);
  Alcotest.(check bool) "false fails" false
    (ok (Claim.holds "Fig 0" "ahead" ~paper:"always" Fun.id) false);
  (* [scallop_cli run] exits 1 on the verdict [Claim.print] returns *)
  Alcotest.(check (list bool)) "run verdict" [ true; false ]
    (List.map (fun x -> Claim.print (Claim.check [ gain ] x)) [ 7.0; 4.2 ]);
  match assert_in_range (Claim.check [ gain ] 4.2) with
  | () -> Alcotest.fail "a claim outside its range passed"
  | exception _ -> ()

let registry_complete () =
  List.iter
    (fun (e : Registry.entry) ->
      Alcotest.(check bool) (e.id ^ " has a claim") true (e.claims <> []))
    Registry.all;
  Alcotest.(check bool) "find works" true (Registry.find "fig18" <> None);
  Alcotest.(check bool) "unknown id" true (Registry.find "fig99" = None)

(* Each test name checks one experiment's claims, or one figure's. *)
let fast =
  [ ("fig15 gain range", "fig15", None); ("fig16 always ahead", "fig16", None);
    ("fig17 anchors", "fig17", None); ("fig18 overhead shape", "fig18", None);
    ("fig2 streams", "fig2", None); ("fig22 reduction", "fig22", None);
    ("table3 fits", "tab3", None) ]

let simulated =
  [ ("table1 split", "tab1", None); ("replay headline", "replay", None);
    ("ctrl churn batching gate", "ctrl_churn", None); ("fig14 staircase", "fig14", None);
    ("fig19 latency ratios", "fig19", None); ("fig23 enhancement vanishes", "fig23_25", None);
    ("ablation: feedback filter", "ablations", Some "§5.3");
    ("ablation: sequence rewriting", "ablations", Some "§6.2");
    ("feedback modes load", "feedback_modes", None); ("table2 structure", "tab2", None);
    ("simulcast splices", "simulcast", None) ]

let slow = [ ("fig3_4 collapse", "fig3_4", None) ]

(* every other experiment, under its own id *)
let others =
  let named = List.map (fun (_, id, _) -> id) (fast @ simulated @ slow) in
  List.filter_map
    (fun (e : Registry.entry) ->
      if List.mem e.id named then None else Some (e.id ^ " claims", e.id, None))
    Registry.all

let cases speed =
  List.map (fun (name, id, figure) -> Alcotest.test_case name speed (claims ?figure id))

let suites =
  [
    ( "experiments",
      [
        ( "fast",
          (Alcotest.test_case "registry complete" `Quick registry_complete :: cases `Quick fast)
          @ [ Alcotest.test_case "claim out of range fails" `Quick out_of_range_fails ] );
        ("simulated", cases `Quick (simulated @ others));
      ] );
    ("fig3_4", [ ("simulated", cases `Slow slow) ]);
  ]

let () =
  let suite, out =
    match Sys.argv with
    | [| _; suite; out |] when List.mem_assoc suite suites -> (suite, out)
    | _ -> failwith "usage: test_experiments.exe (experiments | fig3_4) OUT"
  in
  let passed =
    match Alcotest.run ~argv:[| Sys.argv.(0) |] ~and_exit:false suite (List.assoc suite suites) with
    | () -> true
    | exception Alcotest.Test_error -> false
  in
  let oc = open_out out in
  output_string oc "Claims at `scallop_cli run --quick` scale\n";
  List.iter
    (fun (e : Registry.entry) ->
      Option.iter
        (fun rows ->
          Printf.fprintf oc "\n--- %s: %s\n" e.id e.title;
          List.iter (fun row -> output_string oc (Claim.line row ^ "\n")) rows)
        (Hashtbl.find_opt rows e.id))
    Registry.all;
  close_out oc;
  if not passed then exit 1
