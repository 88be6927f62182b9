(* Fan-out throughput gate: the one wall-clock comparison nothing else
   runs. One sender fans out to 30 unhosted legs through the full data
   plane, best of three runs per mode (Slow, then Fast), then one
   Paranoid pass that byte-compares both paths. Exits 1 if any gate
   trips: the paranoid differential, fast p99 < slow p99, or a speedup
   of at least 4.5x. Results land in BENCH_3.json.

   Usage: dune exec bench/main.exe (no arguments). The experiment tables
   are `scallop_cli run`; the allocation budget is test_dataplane's
   "alloc budget regression". *)

let receivers = 30
let packets = 20_000
let paranoid_packets = 2_000

(* One sender fanning out to [receivers] legs through the full data plane
   (network ingress, PRE replication, per-leg egress). Slow mode
   reproduces the pre-fast-path pipeline exactly — full RTP/DD parse per
   ingress packet, record rewrite + reserialize per leg, uncached
   [Pre.replicate] — so [slow_pps] is an honest baseline. Receiver IPs
   are deliberately not hosted: every egress replica is a cheap
   undeliverable drop, keeping the network simulator out of the
   numerator. *)
let fanout_world ~mode =
  let engine = Netsim.Engine.create () in
  let rng = Scallop_util.Rng.create 7 in
  let network = Netsim.Network.create engine rng in
  let module Addr = Scallop_util.Addr in
  let sfu_ip = Addr.ip_of_string "10.0.0.1" in
  let sender_ip = Addr.ip_of_string "10.0.1.1" in
  let fast =
    { Netsim.Link.default with rate_bps = infinity; propagation_ns = 100 }
  in
  Netsim.Network.add_host network ~ip:sfu_ip ~uplink:fast ~downlink:fast ();
  Netsim.Network.add_host network ~ip:sender_ip ~uplink:fast ~downlink:fast ();
  let dp = Scallop.Dataplane.create engine network ~ip:sfu_ip ~mode () in
  let participants =
    (1, 41_000) :: List.init receivers (fun i -> (2 + i, 42_000 + i))
  in
  let meeting =
    Scallop.Trees.register_meeting (Scallop.Dataplane.trees dp) Scallop.Trees.Nra
      ~participants ~senders:[ 1 ]
  in
  Scallop.Dataplane.register_uplink dp ~port:41_000 ~sender:1 ~meeting ~video_ssrc:77
    ~audio_ssrc:78;
  let recv_ip = Addr.ip_of_string "10.0.2.1" in
  List.iteri
    (fun i (pid, port) ->
      Scallop.Dataplane.register_leg dp ~receiver:pid ~video_ssrc:77 ~audio_ssrc:78
        ~dst:(Addr.v recv_ip (6000 + i)) ~src_port:port ~uplink_port:41_000
        ~rewrite:None)
    (List.tl participants);
  (engine, network, dp)

(* One run: packets per second, the per-packet latency histogram, the
   data plane's fast-path counters, and two GC readings of the timed loop
   (warm-up excluded): bytes allocated per packet and minor collections. *)
let fanout_run ~mode ~packets =
  let engine, network, dp = fanout_world ~mode in
  let module Addr = Scallop_util.Addr in
  let sfu = Addr.v (Addr.ip_of_string "10.0.0.1") 41_000 in
  let src = Addr.v (Addr.ip_of_string "10.0.1.1") 5000 in
  let payload = Bytes.make 1200 'v' in
  let raw seq frame =
    let dd =
      {
        Av1.Dd.start_of_frame = true;
        end_of_frame = true;
        template_id = (frame mod 4) + 1;
        frame_number = frame land 0xFFFF;
        structure = None;
      }
    in
    Rtp.Packet.serialize
      (Rtp.Packet.make
         ~extensions:[ { Rtp.Packet.id = Av1.Dd.extension_id; data = Av1.Dd.serialize dd } ]
         ~payload_type:96 ~sequence:(seq land 0xFFFF) ~timestamp:(frame * 3000) ~ssrc:77
         payload)
  in
  (* pre-serialize the ingress stream so packet construction is not timed *)
  let stream = Array.init packets (fun i -> raw i (i / 2)) in
  let one buf =
    Netsim.Network.send network (Netsim.Dgram.v ~src ~dst:sfu buf);
    Netsim.Engine.run engine
  in
  (* Warm-up before measuring: fills the PRE fan-out cache, the replica
     buffer pool and the egress batch free list, so the GC readings are
     the steady state, not first-touch growth. *)
  Array.iter one (Array.init 200 (fun i -> raw (60_000 + i) (30_000 + i / 2)));
  (* per-packet wall latency (ingress to full fan-out drained) lands in a
     log-bucketed histogram; chaining one clock read per packet keeps the
     instrumentation cost far below the ~10 µs a packet takes *)
  let hist = Scallop_util.Stats.Histogram.create () in
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let t_prev = ref t0 in
  Array.iter
    (fun buf ->
      one buf;
      let t = Unix.gettimeofday () in
      Scallop_util.Stats.Histogram.observe hist ((t -. !t_prev) *. 1e9);
      t_prev := t)
    stream;
  let gc1 = Gc.quick_stat () in
  let pps = float_of_int packets /. (!t_prev -. t0) in
  (* total words allocated = minor + major - promoted (promoted words are
     counted in both the minor and major tallies) *)
  let words =
    gc1.Gc.minor_words -. gc0.Gc.minor_words
    +. (gc1.Gc.major_words -. gc0.Gc.major_words)
    -. (gc1.Gc.promoted_words -. gc0.Gc.promoted_words)
  in
  let alloc_per_pkt = words *. float_of_int (Sys.word_size / 8) /. float_of_int packets in
  let minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections in
  (pps, hist, Scallop.Dataplane.fastpath_stats dp, alloc_per_pkt, minor_gcs)

(* peak throughput over three runs: one warm-up effect or a scheduler
   hiccup must not decide the gate *)
let best mode =
  let runs = List.init 3 (fun _ -> fanout_run ~mode ~packets) in
  List.fold_left
    (fun ((best_pps, _, _, _, _) as acc) ((pps, _, _, _, _) as r) ->
      if pps > best_pps then r else acc)
    (List.hd runs) (List.tl runs)

let () =
  print_endline "== Fan-out throughput: zero-copy fast path vs record slow path ==";
  let p50 h = Scallop_util.Stats.Histogram.percentile h 50.0 in
  let p99 h = Scallop_util.Stats.Histogram.percentile h 99.0 in
  let slow_pps, slow_hist, _, slow_alloc, slow_gcs = best Scallop.Dataplane.Slow in
  let fast_pps, fast_hist, fast_stats, fast_alloc, fast_gcs = best Scallop.Dataplane.Fast in
  let paranoid_ok =
    (* differential gate: both paths over the same stream, byte-compared *)
    match fanout_run ~mode:Scallop.Dataplane.Paranoid ~packets:paranoid_packets with
    | _, _, s, _, _ -> s.Scallop.Dataplane.fp_paranoid_mismatches = 0
    | exception Scallop.Dataplane.Differential_mismatch msg ->
        Printf.printf "DIFFERENTIAL MISMATCH: %s\n" msg;
        false
  in
  let speedup = fast_pps /. slow_pps in
  let gate_p99_ok = p99 fast_hist < p99 slow_hist in
  let gate_speedup_ok = speedup >= 4.5 in
  let ok s = if s then "ok" else "FAILED" in
  Printf.printf "receivers: %d  packets: %d\n" receivers packets;
  Printf.printf
    "slow path: %10.0f pps   (per-packet p50 %.0f ns, p99 %.0f ns; %.0f B alloc/pkt, %d minor GCs)\n"
    slow_pps (p50 slow_hist) (p99 slow_hist) slow_alloc slow_gcs;
  Printf.printf
    "fast path: %10.0f pps   (per-packet p50 %.0f ns, p99 %.0f ns; %.0f B alloc/pkt, %d minor GCs; cache hits %d / misses %d)\n"
    fast_pps (p50 fast_hist) (p99 fast_hist) fast_alloc fast_gcs
    fast_stats.Scallop.Dataplane.fp_cache_hits fast_stats.Scallop.Dataplane.fp_cache_misses;
  Printf.printf "speedup:   %10.2fx\n" speedup;
  Printf.printf "pool:      %d recycled / %d fresh checkouts, high water %d live\n"
    fast_stats.Scallop.Dataplane.fp_pool_recycled
    fast_stats.Scallop.Dataplane.fp_pool_fresh
    fast_stats.Scallop.Dataplane.fp_pool_high_water;
  Printf.printf "paranoid differential check: %s\n" (ok paranoid_ok);
  Printf.printf "p99 ordering gate (fast < slow): %s\n" (ok gate_p99_ok);
  Printf.printf "speedup gate (>= 4.5x): %s\n" (ok gate_speedup_ok);
  let oc = open_out "BENCH_3.json" in
  Printf.fprintf oc
    "{\n  \"benchmark\": \"fanout_pps\",\n  \"receivers\": %d,\n  \"packets\": %d,\n  \
     \"slow_pps\": %.1f,\n  \"fast_pps\": %.1f,\n  \"speedup\": %.3f,\n  \
     \"slow_p50_ns\": %.1f,\n  \"slow_p99_ns\": %.1f,\n  \
     \"fast_p50_ns\": %.1f,\n  \"fast_p99_ns\": %.1f,\n  \
     \"slow_alloc_bytes_per_pkt\": %.1f,\n  \"fast_alloc_bytes_per_pkt\": %.1f,\n  \
     \"slow_minor_gcs\": %d,\n  \"fast_minor_gcs\": %d,\n  \
     \"pool_recycled\": %d,\n  \"pool_fresh\": %d,\n  \"pool_high_water\": %d,\n  \
     \"paranoid_ok\": %b,\n  \"gate_p99_ok\": %b,\n  \"gate_speedup_ok\": %b,\n  \
     \"cache_hits\": %d,\n  \"cache_misses\": %d\n}\n"
    receivers packets slow_pps fast_pps speedup
    (p50 slow_hist) (p99 slow_hist) (p50 fast_hist) (p99 fast_hist)
    slow_alloc fast_alloc slow_gcs fast_gcs
    fast_stats.Scallop.Dataplane.fp_pool_recycled
    fast_stats.Scallop.Dataplane.fp_pool_fresh
    fast_stats.Scallop.Dataplane.fp_pool_high_water
    paranoid_ok gate_p99_ok gate_speedup_ok
    fast_stats.Scallop.Dataplane.fp_cache_hits
    fast_stats.Scallop.Dataplane.fp_cache_misses;
  close_out oc;
  print_endline "wrote BENCH_3.json";
  if not (paranoid_ok && gate_p99_ok && gate_speedup_ok) then exit 1
