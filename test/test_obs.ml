(* Observability layer: metrics registry semantics, trace gating /
   sampling / ring buffer, and the end-to-end determinism contract — two
   same-seed simulated meetings must serialize to byte-identical Chrome
   trace JSON, and a tracing-disabled run must never touch the sink. *)

module Metrics = Scallop_obs.Metrics
module Trace = Scallop_obs.Trace

let fresh () =
  Metrics.reset ();
  Trace.reset ();
  Trace.set_level Trace.Off;
  Trace.set_sample_every 1

(* --- Metrics registry ------------------------------------------------------ *)

let metrics_counter_basics () =
  fresh ();
  let c = Metrics.counter ~labels:[ ("k", "v") ] ~help:"test counter" "test_pkts" in
  Alcotest.(check int) "starts at 0" 0 (Metrics.value c);
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "incr + add" 42 (Metrics.value c);
  let dump = Metrics.dump () in
  let has needle =
    let rec scan i =
      i + String.length needle <= String.length dump
      && (String.sub dump i (String.length needle) = needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "dump has sample" true (has "test_pkts{k=\"v\"} 42");
  Alcotest.(check bool) "dump has help" true (has "# HELP test_pkts test counter")

let metrics_replace_semantics () =
  fresh ();
  let c1 = Metrics.counter "re_reg" in
  Metrics.add c1 7;
  let c2 = Metrics.counter "re_reg" in
  Alcotest.(check int) "new handle zeroed" 0 (Metrics.value c2);
  Alcotest.(check int) "old handle detached but live" 7 (Metrics.value c1);
  Metrics.incr c2;
  let dump = Metrics.dump () in
  Alcotest.(check bool) "dump shows replacement" true
    (let needle = "re_reg 1" in
     let rec scan i =
       i + String.length needle <= String.length dump
       && (String.sub dump i (String.length needle) = needle || scan (i + 1))
     in
     scan 0)

let raises f = match f () with _ -> false | exception Invalid_argument _ -> true

let metrics_read_unknown_raises () =
  fresh ();
  Metrics.add (Metrics.counter ~labels:[ ("b", "2"); ("a", "1") ] "read_pkts") 5;
  Metrics.register_callback ~labels:[ ("a", "1") ] "read_polled" (fun () -> 3.0);
  Alcotest.(check int) "counter, labels in any order" 5
    (Metrics.read ~labels:[ ("a", "1"); ("b", "2") ] "read_pkts");
  Alcotest.(check int) "callback" 3 (Metrics.read ~labels:[ ("a", "1") ] "read_polled");
  Alcotest.(check bool) "unknown name" true (raises (fun () -> Metrics.read "read_pktz"));
  Alcotest.(check bool) "known name, unknown labels" true
    (raises (fun () -> Metrics.read ~labels:[ ("a", "1"); ("b", "3") ] "read_pkts"));
  Alcotest.(check bool) "known name, no labels" true
    (raises (fun () -> Metrics.read "read_pkts"));
  ignore (Metrics.gauge "read_gauge");
  Alcotest.(check bool) "a gauge is not read" true
    (raises (fun () -> Metrics.read "read_gauge"))

let metrics_read_follows_replacement () =
  fresh ();
  let labels = [ ("switch", "sw0") ] in
  let old_world = Metrics.counter ~labels "read_replaced" in
  Metrics.add old_world 7;
  Alcotest.(check int) "first instance" 7 (Metrics.read ~labels "read_replaced");
  let new_world = Metrics.counter ~labels "read_replaced" in
  Metrics.add new_world 2;
  Metrics.incr old_world;
  Alcotest.(check int) "newer instance only" 2 (Metrics.read ~labels "read_replaced")

let metrics_dump_sorted_deterministic () =
  fresh ();
  Metrics.add (Metrics.counter "zeta") 1;
  Metrics.add (Metrics.counter "alpha") 2;
  Metrics.set (Metrics.gauge "mid") 3.5;
  let d1 = Metrics.dump () in
  let d2 = Metrics.dump () in
  Alcotest.(check string) "dump is stable" d1 d2;
  let idx needle =
    let rec scan i =
      if i + String.length needle > String.length d1 then -1
      else if String.sub d1 i (String.length needle) = needle then i
      else scan (i + 1)
    in
    scan 0
  in
  let a = idx "alpha" and m = idx "mid" and z = idx "zeta" in
  Alcotest.(check bool) "all present" true (a >= 0 && m >= 0 && z >= 0);
  Alcotest.(check bool) "sorted by name" true (a < m && m < z)

let metrics_callback_polls () =
  fresh ();
  let v = ref 1.0 in
  Metrics.register_callback "polled" (fun () -> !v);
  let has dump needle =
    let rec scan i =
      i + String.length needle <= String.length dump
      && (String.sub dump i (String.length needle) = needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "first poll" true (has (Metrics.dump ()) "polled 1");
  v := 9.0;
  Alcotest.(check bool) "re-polled at dump" true (has (Metrics.dump ()) "polled 9")

let contains haystack needle =
  let rec scan i =
    i + String.length needle <= String.length haystack
    && (String.sub haystack i (String.length needle) = needle || scan (i + 1))
  in
  scan 0

(* The exact Prometheus exposition of a histogram — cumulative
   [_bucket{le=...}] samples ending at +Inf, then [_sum]/[_count]. A
   golden string so any drift in the text form is a deliberate choice. *)
let metrics_histogram_golden_dump () =
  fresh ();
  let h =
    Metrics.histogram ~labels:[ ("q", "a") ] ~help:"test histogram"
      ~bounds:[| 1.0; 2.0; 4.0 |] "hist_gold"
  in
  List.iter (Scallop_util.Stats.Histogram.observe h) [ 0.5; 1.5; 3.0; 9.0 ];
  let expected =
    "# HELP hist_gold test histogram\n\
     # TYPE hist_gold histogram\n\
     hist_gold_bucket{q=\"a\",le=\"1\"} 1\n\
     hist_gold_bucket{q=\"a\",le=\"2\"} 2\n\
     hist_gold_bucket{q=\"a\",le=\"4\"} 3\n\
     hist_gold_bucket{q=\"a\",le=\"+Inf\"} 4\n\
     hist_gold_sum{q=\"a\"} 14\n\
     hist_gold_count{q=\"a\"} 4\n"
  in
  Alcotest.(check string) "golden text dump" expected (Metrics.dump ())

let metrics_histogram_json_buckets () =
  fresh ();
  let h = Metrics.histogram ~bounds:[| 1.0; 2.0 |] "hist_json" in
  let empty = Metrics.dump_json () in
  Alcotest.(check bool) "empty histogram shape" true
    (contains empty "{\"count\": 0, \"sum\": 0, \"buckets\": []}");
  List.iter (Scallop_util.Stats.Histogram.observe h) [ 1.0; 5.0 ];
  let json = Metrics.dump_json () in
  Alcotest.(check bool) "cumulative buckets in JSON" true
    (contains json "\"buckets\": [[\"1\", 1], [\"2\", 1], [\"+Inf\", 2]]");
  Alcotest.(check bool) "count" true (contains json "\"count\": 2")

let metrics_adopted_histogram () =
  fresh ();
  let h = Scallop_util.Stats.Histogram.create ~bounds:[| 10.0 |] () in
  Scallop_util.Stats.Histogram.observe h 3.0;
  (* register_histogram adopts the live handle instead of zeroing it *)
  Metrics.register_histogram "adopted" h;
  Alcotest.(check bool) "prior observations visible" true
    (contains (Metrics.dump ()) "adopted_count 1")

(* Label values are rendered as OCaml string literals ([%S]) in both dump
   forms, and a label set names the same entry in any order. *)
let metrics_label_escaping () =
  fresh ();
  let quote = "say \"hi\" \\o/" and raw = "line\nnext \xe9t\xe9" in
  let c = Metrics.counter ~labels:[ ("b", raw); ("a", quote) ] "esc_total" in
  Metrics.add c 5;
  let sample = Printf.sprintf "esc_total{a=%S,b=%S}" quote raw in
  Alcotest.(check bool) "text dump line" true
    (contains (Metrics.dump ()) (sample ^ " 5\n"));
  Alcotest.(check bool) "JSON dump line" true
    (contains (Metrics.dump_json ())
       (Printf.sprintf "\n  \"%s\": 5" (Scallop_util.Json.escape sample)));
  let c2 = Metrics.counter ~labels:[ ("a", quote); ("b", raw) ] "esc_total" in
  Metrics.add c2 7;
  let dump = Metrics.dump () in
  Alcotest.(check bool) "reordered labels replace" true
    (contains dump (sample ^ " 7\n") && not (contains dump (sample ^ " 5\n")));
  Alcotest.(check int) "one entry" 1
    (List.length
       (List.filter
          (fun l -> String.length l > 10 && String.sub l 0 10 = "esc_total{")
          (String.split_on_char '\n' dump)))

(* --- Trace gating and sink ------------------------------------------------- *)

let trace_off_writes_nothing () =
  fresh ();
  Trace.set_level Trace.Off;
  if Trace.enabled Trace.Rpc then Trace.instant ~ts:0 ~cat:"rpc" "nope";
  if Trace.enabled Trace.Packet then Trace.instant ~ts:0 ~cat:"dp" "nope";
  Alcotest.(check int) "no sink writes when off" 0 (Trace.writes ());
  Alcotest.(check int) "no events" 0 (List.length (Trace.events ()))

let trace_level_ranking () =
  fresh ();
  Trace.set_level Trace.Rpc;
  Alcotest.(check bool) "rpc on" true (Trace.enabled Trace.Rpc);
  Alcotest.(check bool) "packet off" false (Trace.enabled Trace.Packet);
  Trace.set_level Trace.Packet;
  Alcotest.(check bool) "packet on" true (Trace.enabled Trace.Packet);
  Alcotest.(check bool) "verbose off" false (Trace.enabled Trace.Verbose);
  Trace.set_level Trace.Verbose;
  Alcotest.(check bool) "verbose on" true (Trace.enabled Trace.Verbose)

let trace_sampling () =
  fresh ();
  Trace.set_level Trace.Packet;
  Trace.set_sample_every 3;
  let ids = List.init 9 (fun _ -> Trace.next_packet_id ()) in
  let sampled = List.filter (fun id -> id >= 0) ids in
  Alcotest.(check int) "1-in-3 sampled" 3 (List.length sampled);
  Alcotest.(check (list int)) "dense ids" [ 0; 1; 2 ] sampled

let trace_timeline_filters () =
  fresh ();
  Trace.set_level Trace.Packet;
  Trace.instant ~ts:10 ~trace:0 ~cat:"dp" "ingress";
  Trace.instant ~ts:11 ~trace:1 ~cat:"dp" "ingress";
  Trace.instant ~ts:12 ~trace:0 ~cat:"dp" "egress";
  let tl = Trace.timeline ~trace:0 in
  Alcotest.(check int) "two events for trace 0" 2 (List.length tl);
  Alcotest.(check (list string)) "ordered" [ "ingress"; "egress" ]
    (List.map (fun (e : Trace.event) -> e.Trace.name) tl)

let trace_ring_drops () =
  fresh ();
  Trace.set_level Trace.Packet;
  Trace.set_capacity 4;
  for i = 0 to 9 do
    Trace.instant ~ts:i ~cat:"dp" "e"
  done;
  Alcotest.(check int) "all writes counted" 10 (Trace.writes ());
  Alcotest.(check int) "overwritten counted" 6 (Trace.dropped ());
  let evs = Trace.events () in
  Alcotest.(check int) "ring keeps capacity" 4 (List.length evs);
  Alcotest.(check (list int)) "keeps newest, oldest first" [ 6; 7; 8; 9 ]
    (List.map (fun (e : Trace.event) -> e.Trace.ts) evs);
  Trace.set_capacity 262_144

let trace_dropped_metric_exported () =
  fresh ();
  (* Metrics.reset in [fresh] wiped the module-init registration *)
  Trace.register_metrics ();
  Trace.set_level Trace.Packet;
  Trace.set_capacity 4;
  for i = 0 to 9 do
    Trace.instant ~ts:i ~cat:"dp" "e"
  done;
  let dump = Metrics.dump () in
  Alcotest.(check bool) "dropped total exported" true
    (contains dump "scallop_trace_dropped_total 6");
  Alcotest.(check bool) "writes total exported" true
    (contains dump "scallop_trace_writes_total 10");
  Alcotest.(check int) "first retained index" 6 (Trace.first_retained ());
  Alcotest.(check (list int)) "events indexed globally" [ 6; 7; 8; 9 ]
    (List.map fst (Trace.events_indexed ()));
  Trace.set_capacity 262_144

(* --- End-to-end determinism ------------------------------------------------ *)

let traced_meeting ~seed =
  fresh ();
  Trace.set_level Trace.Packet;
  let stack = Experiments.Common.make_scallop ~seed () in
  let _mid, _clients =
    Experiments.Common.scallop_meeting stack ~participants:3 ~senders:3 ()
  in
  Experiments.Common.run_for stack.Experiments.Common.engine ~seconds:1.0;
  let json = Trace.to_chrome_json () in
  Trace.set_level Trace.Off;
  json

let trace_same_seed_byte_identical () =
  let a = traced_meeting ~seed:5 in
  let b = traced_meeting ~seed:5 in
  Alcotest.(check int) "same length" (String.length a) (String.length b);
  Alcotest.(check bool) "byte-identical" true (String.equal a b);
  Alcotest.(check bool) "non-trivial" true (String.length a > 10_000)

let trace_covers_packet_lifecycle () =
  let json = traced_meeting ~seed:5 in
  let has needle =
    let rec scan i =
      i + String.length needle <= String.length json
      && (String.sub json i (String.length needle) = needle || scan (i + 1))
    in
    scan 0
  in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (has needle))
    [
      "\"ingress\"";
      "\"pre_fanout\"";
      "\"egress\"";
      "\"link_enqueue\"";
      "\"link_deliver\"";
      "\"client_rx\"";
      "\"cat\":\"rpc\"";
      "\"traceEvents\"";
    ]

let trace_disabled_run_untouched () =
  fresh ();
  Trace.set_level Trace.Off;
  let stack = Experiments.Common.make_scallop ~seed:5 () in
  let _mid, _clients =
    Experiments.Common.scallop_meeting stack ~participants:3 ~senders:3 ()
  in
  Experiments.Common.run_for stack.Experiments.Common.engine ~seconds:1.0;
  Alcotest.(check int) "zero sink writes" 0 (Trace.writes ());
  Alcotest.(check int) "zero drops" 0 (Trace.dropped ())

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick metrics_counter_basics;
          Alcotest.test_case "replace semantics" `Quick metrics_replace_semantics;
          Alcotest.test_case "read of an unknown series raises" `Quick
            metrics_read_unknown_raises;
          Alcotest.test_case "read follows replacement" `Quick
            metrics_read_follows_replacement;
          Alcotest.test_case "sorted deterministic dump" `Quick
            metrics_dump_sorted_deterministic;
          Alcotest.test_case "callback gauge" `Quick metrics_callback_polls;
          Alcotest.test_case "histogram golden text dump" `Quick
            metrics_histogram_golden_dump;
          Alcotest.test_case "histogram JSON buckets" `Quick
            metrics_histogram_json_buckets;
          Alcotest.test_case "adopted histogram" `Quick metrics_adopted_histogram;
          Alcotest.test_case "label escaping and order" `Quick metrics_label_escaping;
        ] );
      ( "trace",
        [
          Alcotest.test_case "off writes nothing" `Quick trace_off_writes_nothing;
          Alcotest.test_case "level ranking" `Quick trace_level_ranking;
          Alcotest.test_case "counter sampling" `Quick trace_sampling;
          Alcotest.test_case "timeline filter" `Quick trace_timeline_filters;
          Alcotest.test_case "ring overwrite" `Quick trace_ring_drops;
          Alcotest.test_case "dropped metric exported" `Quick
            trace_dropped_metric_exported;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed byte-identical" `Quick
            trace_same_seed_byte_identical;
          Alcotest.test_case "packet lifecycle coverage" `Quick
            trace_covers_packet_lifecycle;
          Alcotest.test_case "disabled run untouched" `Quick
            trace_disabled_run_untouched;
        ] );
    ]
