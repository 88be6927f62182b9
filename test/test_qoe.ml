(* QoE pipeline: collector windowed queries, SLO multi-window burn-rate
   alerting (fire / dedup / re-arm), trace-linked attribution over
   synthesized evidence, the finding JSON round-trip contract, and the
   end-to-end determinism of the seeded chaos scenario behind
   `scallop_cli qoe`. *)

module Metrics = Scallop_obs.Metrics
module Trace = Scallop_obs.Trace
module Qoe = Scallop_obs.Qoe
module Slo = Scallop_obs.Slo
module Attrib = Scallop_obs.Attrib

let sec s = int_of_float (s *. 1e9)

let key ?(receiver = 3) ?(sender = 1) ?(kind = Qoe.Video) () =
  {
    Qoe.k_meeting = 0;
    k_receiver = receiver;
    k_sender = sender;
    k_media = Qoe.Camera;
    k_kind = kind;
  }

let fresh () =
  Metrics.reset ();
  Qoe.reset ();
  Trace.reset ();
  Trace.set_level Trace.Off;
  Trace.set_sample_every 1

let feed_packets q lo hi =
  (* ten packets per one-second bin, spread inside the bin *)
  for s = lo to hi - 1 do
    for i = 0 to 9 do
      Qoe.on_packet q ~time_ns:((s * 1_000_000_000) + (i * 50_000_000)) ~size:1000
    done
  done

(* --- collector windowed queries -------------------------------------------- *)

let qoe_loss_windows () =
  fresh ();
  let q = Qoe.collector (key ()) in
  feed_packets q 0 8;
  Qoe.on_gap q ~time_ns:(sec 4.2) ~count:20;
  Qoe.on_gap q ~time_ns:(sec 4.2) ~count:0 (* no-op *);
  for _ = 1 to 5 do
    Qoe.on_gap_filled q ~time_ns:(sec 4.3)
  done;
  Qoe.on_duplicate q ~time_ns:(sec 4.4);
  let ratio ~from_s ~until_s =
    Qoe.loss_ratio_between q ~from_ns:(sec from_s) ~until_ns:(sec until_s)
  in
  (match ratio ~from_s:0.0 ~until_s:8.0 with
  | Some r ->
      Alcotest.(check (float 1e-9)) "unrecovered share" ((20.0 -. 5.0) /. 100.0) r
  | None -> Alcotest.fail "expected a loss ratio over the full run");
  (match ratio ~from_s:0.0 ~until_s:2.0 with
  | Some r -> Alcotest.(check (float 1e-9)) "clean prefix" 0.0 r
  | None -> Alcotest.fail "expected a loss ratio over the prefix");
  Alcotest.(check bool) "empty window" true (ratio ~from_s:100.0 ~until_s:110.0 = None);
  let s = Qoe.summary q ~now_ns:(sec 8.0) in
  Alcotest.(check int) "packets" 80 s.Qoe.s_packets;
  Alcotest.(check int) "gap packets" 20 s.Qoe.s_gap_packets;
  Alcotest.(check int) "recovered" 5 s.Qoe.s_recovered;
  Alcotest.(check int) "duplicates" 1 s.Qoe.s_duplicates;
  Alcotest.(check (float 1e-9)) "lifetime loss" 0.15 s.Qoe.s_loss_ratio

let qoe_freeze_windows () =
  fresh ();
  let q = Qoe.collector (key ()) in
  Qoe.on_frame q ~time_ns:0 ~layer:0;
  Qoe.on_freeze_begin q ~time_ns:(sec 1.0);
  Qoe.on_freeze_begin q ~time_ns:(sec 1.2) (* already frozen: ignored *);
  Qoe.on_freeze_end q ~time_ns:(sec 2.0);
  Qoe.on_freeze_end q ~time_ns:(sec 2.5) (* not frozen: ignored *);
  Qoe.on_stall q ~from_ns:(sec 5.0) ~until_ns:(sec 5.5);
  Qoe.on_stall q ~from_ns:(sec 6.0) ~until_ns:(sec 6.0) (* empty: ignored *);
  let frozen ~from_s ~until_s =
    Qoe.frozen_ns_between q ~from_ns:(sec from_s) ~until_ns:(sec until_s)
  in
  Alcotest.(check int) "closed intervals" (sec 1.5) (frozen ~from_s:0.0 ~until_s:10.0);
  Alcotest.(check int) "partial overlap" (sec 0.75)
    (frozen ~from_s:1.5 ~until_s:5.25);
  Qoe.on_freeze_begin q ~time_ns:(sec 8.0);
  Alcotest.(check int) "open freeze counts to window end" (sec 3.5)
    (frozen ~from_s:0.0 ~until_s:10.0);
  (match Qoe.freeze_ratio_between q ~from_ns:(sec 0.0) ~until_ns:(sec 10.0) with
  | Some r -> Alcotest.(check (float 1e-9)) "freeze ratio" 0.35 r
  | None -> Alcotest.fail "expected a freeze ratio");
  let s = Qoe.summary q ~now_ns:(sec 10.0) in
  Alcotest.(check int) "freeze count" 3 s.Qoe.s_freeze_count;
  Alcotest.(check (float 1e-6)) "frozen ms" 3500.0 s.Qoe.s_frozen_ms;
  (* a collector born mid-window is judged only over its lifetime *)
  let q2 = Qoe.collector (key ~receiver:4 ()) in
  Alcotest.(check bool) "no life, no ratio" true
    (Qoe.freeze_ratio_between q2 ~from_ns:0 ~until_ns:(sec 8.0) = None);
  Qoe.on_packet q2 ~time_ns:(sec 4.0) ~size:100;
  Qoe.on_freeze_begin q2 ~time_ns:(sec 4.0);
  Qoe.on_freeze_end q2 ~time_ns:(sec 5.0);
  match Qoe.freeze_ratio_between q2 ~from_ns:0 ~until_ns:(sec 8.0) with
  | Some r -> Alcotest.(check (float 1e-9)) "clamped to lifetime" 0.25 r
  | None -> Alcotest.fail "expected a clamped freeze ratio"

let qoe_m2e_windows () =
  fresh ();
  let q = Qoe.collector (key ()) in
  Qoe.on_mouth_to_ear q ~time_ns:(sec 1.0) ~ms:100.0;
  Qoe.on_mouth_to_ear q ~time_ns:(sec 2.0) ~ms:200.0;
  Qoe.on_mouth_to_ear q ~time_ns:(sec 3.0) ~ms:300.0;
  Qoe.on_mouth_to_ear q ~time_ns:(sec 1.1) ~ms:Float.nan (* rejected *);
  let pct ~from_s ~until_s p =
    Qoe.m2e_percentile_between q ~from_ns:(sec from_s) ~until_ns:(sec until_s) ~p
  in
  Alcotest.(check (option (float 1e-9))) "p0" (Some 100.0) (pct ~from_s:0.0 ~until_s:10.0 0.0);
  Alcotest.(check (option (float 1e-9))) "p50" (Some 200.0) (pct ~from_s:0.0 ~until_s:10.0 50.0);
  Alcotest.(check (option (float 1e-9))) "p100" (Some 300.0)
    (pct ~from_s:0.0 ~until_s:10.0 100.0);
  Alcotest.(check (option (float 1e-9))) "windowed p50" (Some 300.0)
    (pct ~from_s:2.5 ~until_s:10.0 50.0);
  Alcotest.(check (option (float 1e-9))) "empty window" None
    (pct ~from_s:10.0 ~until_s:20.0 50.0);
  let bad ~from_s ~until_s =
    Qoe.m2e_bad_fraction_between q ~from_ns:(sec from_s) ~until_ns:(sec until_s)
      ~threshold_ms:150.0
  in
  Alcotest.(check (option (float 1e-9))) "bad fraction" (Some (2.0 /. 3.0))
    (bad ~from_s:0.0 ~until_s:10.0);
  Alcotest.(check (option (float 1e-9))) "windowed bad fraction" (Some 1.0)
    (bad ~from_s:2.5 ~until_s:10.0)

(* The rings grow on demand and then wrap: windowed answers must equal a
   naive scan of the newest [cap] samples, before the first wrap (the
   ring grown but not full) and well past it. *)
let m2e_cap = 16_384
let trace_cap = 8_192

let last n l = List.filteri (fun i _ -> i < n) l (* [l] is newest first *)

let qoe_m2e_ring_grows_then_wraps () =
  fresh ();
  let q = Qoe.collector (key ()) in
  let fed = ref [] (* (time_ns, ms), newest first *) in
  let check_against_naive n =
    let kept = last m2e_cap !fed in
    let windows =
      [
        (0, max_int);
        (* straddles the oldest kept sample once the ring has wrapped *)
        (1_000 * (n - 20_000), 1_000 * (n - 10_000));
        (1_000 * (n - 900), 1_000 * (n - 100));
      ]
    in
    List.iter
      (fun (from_ns, until_ns) ->
        let vs =
          List.filter_map
            (fun (ts, v) -> if ts >= from_ns && ts <= until_ns then Some v else None)
            kept
          |> Array.of_list
        in
        Array.sort Float.compare vs;
        let what = Printf.sprintf "after %d, window %d..%d" n from_ns until_ns in
        List.iter
          (fun p ->
            let naive =
              if vs = [||] then None
              else Some (Scallop_util.Stats.percentile_of_array vs p)
            in
            Alcotest.(check (option (float 0.0)))
              (Printf.sprintf "%s p%g" what p) naive
              (Qoe.m2e_percentile_between q ~from_ns ~until_ns ~p))
          [ 0.0; 50.0; 99.0; 100.0 ];
        let naive_bad =
          if vs = [||] then None
          else
            let bad = Array.fold_left (fun a v -> if v > 250.0 then a + 1 else a) 0 vs in
            Some (float_of_int bad /. float_of_int (Array.length vs))
        in
        Alcotest.(check (option (float 0.0)))
          (what ^ " bad fraction") naive_bad
          (Qoe.m2e_bad_fraction_between q ~from_ns ~until_ns ~threshold_ms:250.0))
      windows
  in
  for i = 1 to 40_000 do
    (* one sample per virtual microsecond, values scattered over 0..499 ms *)
    let ts = 1_000 * i and ms = float_of_int (i * 7_919 mod 5_000) /. 10.0 in
    Qoe.on_mouth_to_ear q ~time_ns:ts ~ms;
    fed := (ts, ms) :: !fed;
    if List.mem i [ 1; 1_500; m2e_cap; m2e_cap + 1; 40_000 ] then check_against_naive i
  done

let qoe_trace_ring_wraps () =
  fresh ();
  let q = Qoe.collector (key ()) in
  let fed = ref [] in
  let check_against_naive n =
    List.iter
      (fun (from_ns, until_ns) ->
        let naive =
          last trace_cap !fed
          |> List.filter_map (fun (ts, id) ->
                 if ts >= from_ns && ts <= until_ns then Some id else None)
          |> List.sort_uniq compare
        in
        Alcotest.(check (list int))
          (Printf.sprintf "after %d, window %d..%d" n from_ns until_ns)
          naive
          (Qoe.traces_between q ~from_ns ~until_ns))
      [ (0, max_int); (1_000 * (n - 700), 1_000 * (n - 50)) ]
  in
  for i = 1 to 20_000 do
    (* ids repeat, so the answer also tests de-duplication *)
    let ts = 1_000 * i and id = i * 31 mod 9_000 in
    Qoe.note_trace q ~time_ns:ts ~trace:id;
    fed := (ts, id) :: !fed;
    if List.mem i [ 1_500; trace_cap; trace_cap + 1; 20_000 ] then check_against_naive i
  done

(* A fresh collector holds no ring storage; untraced packets never
   allocate the trace ring, and the first traced one does. *)
let qoe_collector_footprint () =
  fresh ();
  let q = Qoe.collector (key ()) in
  let fresh_words = Obj.reachable_words (Obj.repr q) in
  Alcotest.(check bool)
    (Printf.sprintf "fresh collector %d words <= 1024" fresh_words)
    true (fresh_words <= 1_024);
  for i = 1 to 100 do
    Qoe.note_trace q ~time_ns:(1_000 * i) ~trace:(-1)
  done;
  Alcotest.(check int) "untraced packets allocate nothing" fresh_words
    (Obj.reachable_words (Obj.repr q));
  Qoe.note_trace q ~time_ns:200_000 ~trace:1;
  Alcotest.(check bool) "a traced packet allocates the trace ring" true
    (Obj.reachable_words (Obj.repr q) >= fresh_words + (2 * trace_cap))

(* The scallop_qoe_* series are the live collectors, read when the
   registry dumps: they survive [Metrics.reset] and go with [Qoe.reset],
   so a world's collectors stop being dumped (and reachable) once the
   next world resets them. *)
let qoe_metrics_follow_collectors () =
  fresh ();
  let q = Qoe.collector (key ()) in
  feed_packets q 0 2;
  Qoe.on_mouth_to_ear q ~time_ns:(sec 1.0) ~ms:40.0;
  let has dump line =
    List.mem line (String.split_on_char '\n' dump)
  in
  let labels = {|{kind="video",media="cam",meeting="0",receiver="3",sender="1"}|} in
  let packets = "scallop_qoe_packets_total" ^ labels ^ " 20" in
  let m2e_count = "scallop_qoe_mouth_to_ear_ms_count" ^ labels ^ " 1" in
  Alcotest.(check bool) "packets dumped" true (has (Metrics.dump ()) packets);
  Alcotest.(check bool) "histogram dumped" true (has (Metrics.dump ()) m2e_count);
  Metrics.reset ();
  Alcotest.(check bool) "still dumped after Metrics.reset" true (has (Metrics.dump ()) packets);
  Qoe.reset ();
  let dump = Metrics.dump () in
  Alcotest.(check bool) "gone with the collector" false
    (List.exists
       (fun l -> String.length l >= 11 && String.sub l 0 11 = "scallop_qoe")
       (String.split_on_char '\n' dump))

let qoe_traces_and_layers () =
  fresh ();
  let q = Qoe.collector (key ()) in
  List.iter
    (fun (t, id) -> Qoe.note_trace q ~time_ns:(sec t) ~trace:id)
    [ (1.0, 5); (1.0, 3); (2.0, 5); (2.0, -1); (3.0, 7) ];
  Alcotest.(check (list int)) "distinct ascending" [ 3; 5; 7 ]
    (Qoe.traces_between q ~from_ns:0 ~until_ns:(sec 10.0));
  Alcotest.(check (list int)) "windowed" [ 3; 5 ]
    (Qoe.traces_between q ~from_ns:0 ~until_ns:(sec 1.5));
  Alcotest.(check (list int)) "empty window" []
    (Qoe.traces_between q ~from_ns:(sec 3.5) ~until_ns:(sec 10.0));
  Qoe.on_frame q ~time_ns:(sec 1.0) ~layer:(-5);
  Qoe.on_frame q ~time_ns:(sec 1.1) ~layer:1;
  Qoe.on_frame q ~time_ns:(sec 1.2) ~layer:99;
  let s = Qoe.summary q ~now_ns:(sec 10.0) in
  Alcotest.(check int) "frames" 3 s.Qoe.s_frames;
  Array.iteri
    (fun l share ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "layer %d share (clamped)" l)
        (1.0 /. 3.0) share)
    s.Qoe.s_layer_share

(* --- SLO burn-rate engine --------------------------------------------------- *)

let loss_spec =
  {
    Slo.slo = "loss_test";
    objective = Slo.Loss_ratio;
    kinds = [ Qoe.Video ];
    budget = 0.01;
    long_ns = sec 8.0;
    short_ns = sec 2.0;
    fire_burn = 1.0;
  }

let slo_fire_dedup_rearm () =
  fresh ();
  let slo = Slo.create ~specs:[ loss_spec ] () in
  let q = Qoe.collector (key ()) in
  let qa = Qoe.collector (key ~kind:Qoe.Audio ()) in
  feed_packets q 0 8;
  feed_packets qa 0 8;
  (* an audio burn must not trip a Video-only spec *)
  Qoe.on_gap qa ~time_ns:(sec 7.5) ~count:8;
  Alcotest.(check int) "clean video: nothing fires" 0
    (List.length (Slo.evaluate slo ~now_ns:(sec 8.0)));
  Qoe.on_gap q ~time_ns:(sec 7.5) ~count:5;
  (match Slo.evaluate slo ~now_ns:(sec 8.0) with
  | [ a ] ->
      Alcotest.(check string) "slo label" "loss_test" a.Slo.a_slo;
      Alcotest.(check bool) "video key" true (a.Slo.a_key.Qoe.k_kind = Qoe.Video);
      Alcotest.(check int) "attribution window start" 0 a.Slo.a_from_ns;
      Alcotest.(check int) "attribution window end" (sec 8.0) a.Slo.a_until_ns;
      Alcotest.(check bool) "both windows burning" true
        (a.Slo.a_burn_long >= 1.0 && a.Slo.a_burn_short >= 1.0)
  | l -> Alcotest.failf "expected 1 alert, got %d" (List.length l));
  Alcotest.(check int) "deduplicated while still burning" 0
    (List.length (Slo.evaluate slo ~now_ns:(sec 8.5)));
  feed_packets q 20 30;
  Alcotest.(check int) "healthy window re-arms silently" 0
    (List.length (Slo.evaluate slo ~now_ns:(sec 30.0)));
  Qoe.on_gap q ~time_ns:(sec 29.5) ~count:10;
  Alcotest.(check int) "second burn fires again" 1
    (List.length (Slo.evaluate slo ~now_ns:(sec 30.0)));
  Alcotest.(check int) "alert history" 2 (List.length (Slo.alerts slo))

let slo_m2e_burn () =
  fresh ();
  let spec =
    {
      loss_spec with
      Slo.slo = "m2e_test";
      objective = Slo.Mouth_to_ear { threshold_ms = 150.0 };
    }
  in
  let slo = Slo.create ~specs:[ spec ] () in
  let q = Qoe.collector (key ()) in
  for s = 0 to 7 do
    for i = 0 to 9 do
      Qoe.on_mouth_to_ear q
        ~time_ns:((s * 1_000_000_000) + (i * 50_000_000))
        ~ms:10.0
    done
  done;
  Alcotest.(check int) "tail within budget" 0
    (List.length (Slo.evaluate slo ~now_ns:(sec 8.0)));
  Qoe.on_mouth_to_ear q ~time_ns:(sec 7.2) ~ms:500.0;
  Qoe.on_mouth_to_ear q ~time_ns:(sec 7.4) ~ms:500.0;
  match Slo.evaluate slo ~now_ns:(sec 8.0) with
  | [ a ] -> Alcotest.(check string) "m2e slo fired" "m2e_test" a.Slo.a_slo
  | l -> Alcotest.failf "expected 1 alert, got %d" (List.length l)

let slo_freeze_burn () =
  fresh ();
  let spec =
    { loss_spec with Slo.slo = "freeze_test"; objective = Slo.Freeze_ratio; budget = 0.005 }
  in
  let slo = Slo.create ~specs:[ spec ] () in
  let q = Qoe.collector (key ()) in
  Qoe.on_frame q ~time_ns:0 ~layer:0;
  Alcotest.(check int) "no freeze, no alert" 0
    (List.length (Slo.evaluate slo ~now_ns:(sec 8.0)));
  Qoe.on_freeze_begin q ~time_ns:(sec 6.0);
  Qoe.on_freeze_end q ~time_ns:(sec 7.5);
  match Slo.evaluate slo ~now_ns:(sec 8.0) with
  | [ a ] -> Alcotest.(check string) "freeze slo fired" "freeze_test" a.Slo.a_slo
  | l -> Alcotest.failf "expected 1 alert, got %d" (List.length l)

(* --- attribution over synthesized trace evidence ---------------------------- *)

let drop ?(reason = "loss") ~link ~trace ts =
  Trace.instant ~ts ~trace ~cat:"link" "link_drop"
    ~args:[ ("reason", Trace.S reason); ("link", Trace.S link) ]

let attrib_victim_links () =
  fresh ();
  let q = Qoe.collector (key ()) in
  Qoe.set_host q "10.9.9.9";
  List.iter (fun id -> Qoe.note_trace q ~time_ns:(sec 1.0) ~trace:id) [ 1; 2; 3 ];
  (* the victim's own downlink: ids the victim never noted (the dropped
     replica never arrived), still Error by link identity — events 0..3 *)
  List.iter (fun i -> drop ~link:"down:10.9.9.9" ~trace:(100 + i) (sec 2.0)) [ 0; 1; 2; 3 ];
  (* queue overflow on the same link — events 4..6 *)
  List.iter
    (fun i -> drop ~reason:"queue" ~link:"down:10.9.9.9" ~trace:(200 + i) (sec 2.05))
    [ 0; 1; 2 ];
  (* shared fate: replicas of packets the victim received, dropped toward
     someone else — events 7..9 *)
  List.iter (fun id -> drop ~link:"down:10.0.2.2" ~trace:id (sec 2.1)) [ 1; 2; 3 ];
  (* ambient storm, untraced — events 10..29 *)
  for _ = 1 to 20 do
    drop ~link:"up:10.0.5.5" ~trace:(-1) (sec 2.2)
  done;
  (* below every threshold: must not surface *)
  drop ~link:"down:10.0.7.7" ~trace:(-1) (sec 2.3);
  (match Attrib.attribute ~victim:q ~from_ns:0 ~until_ns:(sec 4.0) () with
  | [ f1; f2; f3; f4 ] ->
      Alcotest.(check string) "worst first: victim loss" "down:10.9.9.9" f1.Attrib.f_subject;
      Alcotest.(check bool) "victim loss is Error" true (f1.Attrib.f_severity = Attrib.Error);
      Alcotest.(check bool) "loss cause" true
        (f1.Attrib.f_cause
        = Attrib.Link_loss { link = "down:10.9.9.9"; drops = 4; victim_hits = 4 });
      Alcotest.(check (list int)) "implicated victim traces" [ 100; 101; 102; 103 ]
        f1.Attrib.f_trace_ids;
      Alcotest.(check int) "first event" 0 f1.Attrib.f_first_event;
      Alcotest.(check int) "last event" 3 f1.Attrib.f_last_event;
      Alcotest.(check bool) "nothing truncated" false f1.Attrib.f_truncated;
      Alcotest.(check string) "then victim queue" "link_queue" f2.Attrib.f_kind;
      Alcotest.(check bool) "queue is Error too" true (f2.Attrib.f_severity = Attrib.Error);
      Alcotest.(check int) "queue events" 4 f2.Attrib.f_first_event;
      Alcotest.(check bool) "shared fate is Warning" true
        (f3.Attrib.f_severity = Attrib.Warning);
      Alcotest.(check bool) "shared-fate cause" true
        (f3.Attrib.f_cause
        = Attrib.Link_loss { link = "down:10.0.2.2"; drops = 3; victim_hits = 3 });
      Alcotest.(check (list int)) "shared-fate traces" [ 1; 2; 3 ] f3.Attrib.f_trace_ids;
      Alcotest.(check bool) "ambient last" true
        (f4.Attrib.f_cause
        = Attrib.Link_loss { link = "up:10.0.5.5"; drops = 20; victim_hits = 0 });
      Alcotest.(check (list int)) "ambient implicates no traces" [] f4.Attrib.f_trace_ids
  | fs -> Alcotest.failf "expected 4 findings, got %d" (List.length fs));
  Alcotest.(check int) "evidence outside the window is ignored" 0
    (List.length (Attrib.attribute ~victim:q ~from_ns:(sec 3.0) ~until_ns:(sec 4.0) ()))

let attrib_storms () =
  fresh ();
  let q = Qoe.collector (key ()) in
  for _ = 1 to 10 do
    Trace.instant ~ts:(sec 1.0) ~cat:"pre" "pre_invalidate" ~args:[ ("pre", Trace.S "pre0") ]
  done;
  for _ = 1 to 9 do
    Trace.instant ~ts:(sec 1.0) ~cat:"pre" "pre_invalidate" ~args:[ ("pre", Trace.S "pre1") ]
  done;
  for _ = 1 to 2 do
    Trace.instant ~ts:(sec 1.5) ~cat:"ctrl" "resync"
      ~args:[ ("agent", Trace.I 0); ("ops", Trace.I 7) ]
  done;
  for i = 0 to 4 do
    Trace.complete
      ~ts:(sec (1.0 +. (0.1 *. float_of_int i)))
      ~dur:1_000_000 ~cat:"rpc" "call"
      ~args:[ ("client", Trace.S "ctrl->agent0"); ("attempts", Trace.I 3) ]
  done;
  (* a clean first-attempt call is not retry evidence *)
  Trace.complete ~ts:(sec 1.9) ~dur:1_000_000 ~cat:"rpc" "call"
    ~args:[ ("client", Trace.S "ctrl->agent1"); ("attempts", Trace.I 1) ];
  match Attrib.attribute ~victim:q ~from_ns:0 ~until_ns:(sec 3.0) () with
  | [ f1; f2; f3 ] ->
      (* all Warnings, ordered by evidence volume: resync 14 ops, pre 10
         flushes, rpc 5 spans; pre1 stayed under min_pre_flushes *)
      Alcotest.(check bool) "no Errors from ambient storms" true
        (List.for_all (fun f -> f.Attrib.f_severity = Attrib.Warning) [ f1; f2; f3 ]);
      Alcotest.(check bool) "resync epochs merged" true
        (f1.Attrib.f_cause = Attrib.Resync { agent = 0; ops = 14 });
      Alcotest.(check string) "resync subject" "agent0" f1.Attrib.f_subject;
      Alcotest.(check bool) "invalidation storm" true
        (f2.Attrib.f_cause = Attrib.Pre_invalidation { pre = "pre0"; flushes = 10 });
      Alcotest.(check bool) "retry storm" true
        (f3.Attrib.f_cause
        = Attrib.Rpc_retries { client = "ctrl->agent0"; spans = 5; attempts = 10 })
  | fs -> Alcotest.failf "expected 3 findings, got %d" (List.length fs)

let attrib_truncated_by_ring_wrap () =
  fresh ();
  Trace.set_capacity 8;
  let q = Qoe.collector (key ()) in
  Qoe.set_host q "10.9.9.9";
  for i = 0 to 15 do
    drop ~link:"down:10.9.9.9" ~trace:i (sec (1.0 +. (0.1 *. float_of_int i)))
  done;
  let fs = Attrib.attribute ~victim:q ~from_ns:0 ~until_ns:(sec 5.0) () in
  Trace.set_capacity 262_144;
  match fs with
  | [ f ] ->
      Alcotest.(check bool) "only retained drops counted" true
        (f.Attrib.f_cause
        = Attrib.Link_loss { link = "down:10.9.9.9"; drops = 8; victim_hits = 8 });
      Alcotest.(check int) "evidence starts past the wrap" 8 f.Attrib.f_first_event;
      Alcotest.(check int) "through the newest event" 15 f.Attrib.f_last_event;
      Alcotest.(check bool) "flagged truncated" true f.Attrib.f_truncated;
      Alcotest.(check bool) "truncated finding round-trips" true
        (Attrib.finding_of_json (Attrib.finding_to_json f) = Some f)
  | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs)

(* --- finding JSON round-trip ------------------------------------------------ *)

let base_finding =
  {
    Attrib.f_severity = Attrib.Warning;
    f_component = "link";
    f_kind = "link_loss";
    f_subject = "down:10.0.1.3";
    f_explanation = "plain";
    f_victim = key ();
    f_cause = Attrib.Link_loss { link = "down:10.0.1.3"; drops = 1; victim_hits = 0 };
    f_trace_ids = [];
    f_first_event = 0;
    f_last_event = 5;
    f_from_ns = 0;
    f_until_ns = 1_000_000_000;
    f_truncated = false;
  }

let json_roundtrip_manual () =
  let cases =
    [
      {
        base_finding with
        Attrib.f_severity = Attrib.Error;
        f_explanation = "quote \" back\\slash\nnewline\ttab";
        f_cause = Attrib.Link_loss { link = "down:10.0.1.3"; drops = 10; victim_hits = 3 };
        f_trace_ids = [ 1; 2; 9 ];
      };
      {
        base_finding with
        Attrib.f_kind = "link_queue";
        f_cause = Attrib.Link_queue { link = "down:10.0.1.3"; drops = 4; victim_hits = 4 };
        f_truncated = true;
      };
      {
        base_finding with
        Attrib.f_component = "pre";
        f_kind = "pre_invalidation";
        f_subject = "pre[0]";
        f_cause = Attrib.Pre_invalidation { pre = "pre[0]"; flushes = 12 };
      };
      {
        base_finding with
        Attrib.f_component = "ctrl";
        f_kind = "resync";
        f_subject = "agent2";
        f_cause = Attrib.Resync { agent = 2; ops = 5 };
      };
      {
        base_finding with
        Attrib.f_component = "rpc";
        f_kind = "rpc_retries";
        f_subject = "ctrl->agent\"0\"";
        f_cause = Attrib.Rpc_retries { client = "ctrl->agent\"0\""; spans = 5; attempts = 9 };
      };
    ]
  in
  List.iter
    (fun f ->
      let js = Attrib.finding_to_json f in
      match Attrib.finding_of_json js with
      | Some g when g = f -> ()
      | Some _ -> Alcotest.failf "round-trip mismatch: %s" js
      | None -> Alcotest.failf "did not parse back: %s" js)
    cases;
  Alcotest.(check bool) "garbage rejected" true (Attrib.finding_of_json "nonsense" = None);
  Alcotest.(check bool) "partial object rejected" true
    (Attrib.finding_of_json "{\"severity\": \"error\"}" = None)

let finding_gen =
  let open QCheck.Gen in
  let chr = map Char.chr (int_range 0 255) in
  let str = string_size ~gen:chr (int_range 0 12) in
  let nat = int_range 0 1_000_000 in
  oneofl [ `Loss; `Queue; `Pre; `Resync; `Rpc ] >>= fun ck ->
  str >>= fun subject ->
  str >>= fun expl ->
  oneofl [ Attrib.Error; Attrib.Warning ] >>= fun sev ->
  nat >>= fun d1 ->
  nat >>= fun d2 ->
  list_size (int_range 0 5) nat >>= fun tids ->
  bool >>= fun trunc ->
  nat >>= fun meeting ->
  nat >>= fun receiver ->
  nat >>= fun sender ->
  oneofl [ Qoe.Camera; Qoe.Screen ] >>= fun media ->
  oneofl [ Qoe.Video; Qoe.Audio ] >>= fun kind ->
  nat >>= fun e1 ->
  nat >>= fun e2 ->
  let component, fkind, cause =
    match ck with
    | `Loss ->
        ("link", "link_loss", Attrib.Link_loss { link = subject; drops = d1; victim_hits = d2 })
    | `Queue ->
        ( "link",
          "link_queue",
          Attrib.Link_queue { link = subject; drops = d1; victim_hits = d2 } )
    | `Pre -> ("pre", "pre_invalidation", Attrib.Pre_invalidation { pre = subject; flushes = d1 })
    | `Resync -> ("ctrl", "resync", Attrib.Resync { agent = d1; ops = d2 })
    | `Rpc ->
        ( "rpc",
          "rpc_retries",
          Attrib.Rpc_retries { client = subject; spans = d1; attempts = d2 } )
  in
  return
    {
      Attrib.f_severity = sev;
      f_component = component;
      f_kind = fkind;
      f_subject = subject;
      f_explanation = expl;
      f_victim =
        {
          Qoe.k_meeting = meeting;
          k_receiver = receiver;
          k_sender = sender;
          k_media = media;
          k_kind = kind;
        };
      f_cause = cause;
      f_trace_ids = tids;
      f_first_event = e1;
      f_last_event = e2;
      f_from_ns = e1;
      f_until_ns = e2;
      f_truncated = trunc;
    }

let json_roundtrip_prop =
  QCheck.Test.make ~name:"finding json round-trips (any bytes)" ~count:300
    (QCheck.make ~print:Attrib.finding_to_json finding_gen)
    (fun f -> Attrib.finding_of_json (Attrib.finding_to_json f) = Some f)

(* --- end-to-end: the chaos scenario behind `scallop_cli qoe` ---------------- *)

let chaos_deterministic () =
  let r1 = Experiments.Qoe_chaos.compute ~quick:true () in
  let r2 = Experiments.Qoe_chaos.compute ~quick:true () in
  let open Experiments.Qoe_chaos in
  Alcotest.(check string) "injected link" "down:10.0.1.3" r1.victim_link;
  Alcotest.(check bool) "slo alerts fired" true (r1.alerts <> []);
  Alcotest.(check bool) "faulty link named" true r1.link_named;
  Alcotest.(check bool) "findings round-trip" true r1.roundtrip_ok;
  Alcotest.(check bool) "error finding blames the injected link" true
    (List.exists
       (fun f ->
         f.Attrib.f_severity = Attrib.Error
         && f.Attrib.f_kind = "link_loss"
         && f.Attrib.f_subject = r1.victim_link)
       r1.findings);
  Alcotest.(check (list string)) "same seed, same alerts"
    (List.map Slo.alert_str r1.alerts)
    (List.map Slo.alert_str r2.alerts);
  Alcotest.(check (list string)) "same seed, same findings"
    (List.map Attrib.finding_to_json r1.findings)
    (List.map Attrib.finding_to_json r2.findings)

let () =
  let t = Alcotest.test_case in
  Alcotest.run "qoe"
    [
      ( "collector",
        [
          t "loss windows" `Quick qoe_loss_windows;
          t "freeze windows" `Quick qoe_freeze_windows;
          t "mouth-to-ear windows" `Quick qoe_m2e_windows;
          t "traces and layer clamping" `Quick qoe_traces_and_layers;
          t "mouth-to-ear ring grows then wraps" `Quick qoe_m2e_ring_grows_then_wraps;
          t "trace ring wraps" `Quick qoe_trace_ring_wraps;
          t "collector footprint" `Quick qoe_collector_footprint;
          t "metrics follow the live collectors" `Quick qoe_metrics_follow_collectors;
        ] );
      ( "slo",
        [
          t "fire, dedup, re-arm" `Quick slo_fire_dedup_rearm;
          t "mouth-to-ear burn" `Quick slo_m2e_burn;
          t "freeze burn" `Quick slo_freeze_burn;
        ] );
      ( "attrib",
        [
          t "victim links vs shared fate vs ambient" `Quick attrib_victim_links;
          t "pre/resync/rpc storms" `Quick attrib_storms;
          t "ring wrap truncation" `Quick attrib_truncated_by_ring_wrap;
        ] );
      ( "json",
        [
          t "manual round-trips and rejects" `Quick json_roundtrip_manual;
          Fixed_seed.to_alcotest json_roundtrip_prop;
        ] );
      ("chaos", [ t "same seed, same root cause" `Slow chaos_deterministic ]);
    ]
