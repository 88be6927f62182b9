(* Layered performance ledger.

   ledger.exe --workload W --seed N --seconds S --trace 0|1
     One fresh-process run. Untraced: the end-to-end metrics. Traced:
     every round played untraced and, in turns over the same ops, traced
     with every layer probed or by the library alone; prints the
     per-layer metrics and writes a Chrome trace to ledger-out/. Every
     metric is printed as
     [metric workload value unit]; the last line is one JSON object with
     the declared metrics.
   ledger.exe compare A/ B/ [--spec BENCHMARK.json]
     Medians and quartiles per (metric, workload) of two sets of captured
     runs; exits 1 if any medians differ by more than the metric's bound.
   ledger.exe row DIR --sha SHA
     One trajectory.jsonl line: per-metric medians of the runs in DIR.
   ledger.exe smoke BENCHMARK.json
     Every workload once at tiny size, traced and untraced; checks that
     the emitted names are the declared ones. *)

module Report = Bench_report
module W = Workloads
module Samples = Scallop_util.Stats.Samples
module Obs_trace = Scallop_obs.Trace
module Engine = Netsim.Engine

let bytes_per_word = float_of_int (Sys.word_size / 8)

(* --- one phase: rounds of timed ops --------------------------------------------- *)

(* One kept op of a probed turn, beside the same op in the plain play
   (wall ns at reference speed). *)
type kept = {
  k_net : float;  (** wall charged to layers less the probes' calibrated residual *)
  k_events : float;
  k_raw : float;  (** probed wall *)
  k_plain : float;  (** untraced wall *)
}

type phase = {
  mutable ops : int;
  mutable op_ns : int;  (** raw wall ns, summed *)
  rates : Samples.t;  (** ops per second at reference speed, per round *)
  block : float array;  (** the current block's wall ns per op, at reference speed *)
  mutable block_n : int;
  p50s : Samples.t;  (** per completed block *)
  p99s : Samples.t;
  kernel : Samples.t;  (** reference kernel ns, per round *)
  mutable round_ns : int array;  (** this round's raw wall ns per op *)
  mutable round_words : float array;  (** this round's minor words per op *)
  mutable words : float;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** names of the checks that failed *)
  mutable rounds : int;
  mutable frames_decoded : int;
  mutable frames_total : int;
  (* traced play only *)
  mutable kept : kept list;  (** newest first *)
  (* the unprobed turns' ops that wrote events, against the same ops in
     the plain play, summed: *)
  mutable lib_ns : float;  (** wall ns at reference speed the library's tracing added *)
  mutable lib_words : float;  (** minor words it added *)
  mutable lib_events : float;  (** events it wrote *)
  mutable steps_kept : int;
  mutable pending_max : int;
  mutable ctrl_ops : int;  (** controller operations inside kept ops *)
  mutable suppressed : int;
  mutable egress : int;
  reg : (string, float) Hashtbl.t;  (** registry deltas *)
}

(* Op latencies are summarized per block of [block_ops] consecutive ops
   and reported as the median over blocks of each block's p50 and p99: a
   stretch of host noise spoils a few blocks, not the run's figure, and
   the harness's memory does not grow with the ops a run gets through.
   A block's p50 is the mean of its 40th to 60th percentile, its p99 the
   mean of its 98.5th to 99.5th, with 10 samples beyond: the op times
   of ctrl_churn and campus_live fall in clusters (leaves near 0.1 ms,
   joins at 1 to 4 ms, retried ops near 10 ms; idle and busy virtual
   milliseconds), the plain order statistics sit in the gaps between
   them, and they jumped by up to 25% from run to run. *)
let block_ops = 2_000

let new_phase () =
  {
    ops = 0;
    op_ns = 0;
    rates = Samples.create ();
    block = Array.make block_ops 0.0;
    block_n = 0;
    p50s = Samples.create ();
    p99s = Samples.create ();
    kernel = Samples.create ();
    round_ns = Array.make 1024 0;
    round_words = Array.make 1024 0.0;
    words = 0.0;
    attempted = 0;
    failed = 0;
    failures = [];
    rounds = 0;
    frames_decoded = 0;
    frames_total = 0;
    kept = [];
    lib_ns = 0.0;
    lib_words = 0.0;
    lib_events = 0.0;
    steps_kept = 0;
    pending_max = 0;
    ctrl_ops = 0;
    suppressed = 0;
    egress = 0;
    reg = Hashtbl.create 16;
  }

let close_block p =
  let a = Array.sub p.block 0 p.block_n in
  Array.sort compare a;
  Samples.observe p.p50s (Report.band_mean a ~lo:40.0 ~hi:60.0);
  Samples.observe p.p99s (Report.band_mean a ~lo:98.5 ~hi:99.5);
  p.block_n <- 0

let observe_latency p ns =
  p.block.(p.block_n) <- ns;
  p.block_n <- p.block_n + 1;
  if p.block_n = block_ops then close_block p

let record_op p ~round_op ~ns ~words =
  if round_op >= Array.length p.round_ns then begin
    let grow a zero =
      let g = Array.make (2 * round_op) zero in
      Array.blit a 0 g 0 round_op;
      g
    in
    p.round_ns <- grow p.round_ns 0;
    p.round_words <- grow p.round_words 0.0
  end;
  p.round_ns.(round_op) <- ns;
  p.round_words.(round_op) <- words;
  p.ops <- p.ops + 1;
  p.op_ns <- p.op_ns + ns;
  p.words <- p.words +. words

(* --- machine speed reference ------------------------------------------------------ *)

(* A shared 2-vCPU KVM guest (Intel Xeon, 4 MB L2 per core) runs
   memory-bound code up to 50% slower for stretches of one to 60 s while
   a register-only loop does not slow down, which would decide every
   comparison between runs. So the
   harness times this kernel throughout each round, and the end-to-end
   times are reported at the kernel's nominal speed: each op's wall time
   is scaled by [at_reference] of the kernel times around it. The kernel
   copies packet-sized buffers through an 8 MB ring and reads scattered
   bytes of it; it allocates nothing and calls no library code, so no
   change to the library moves it. Raw wall-clock figures are printed
   beside. *)
let ring_bytes = 8 lsl 20
let ring = Bytes.create ring_bytes
let packet = Bytes.make 1200 'p'

let kernel () =
  let acc = ref 0 and pos = ref 0 in
  for i = 0 to 6_000 do
    Bytes.blit packet 0 ring !pos 1200;
    pos := (!pos + 1216) land (ring_bytes - 2048);
    acc := !acc + Char.code (Bytes.unsafe_get ring (i * 7919 * 1021 land (ring_bytes - 1)))
  done;
  !acc

(* Median of 31 timed kernel runs, ns. *)
let reference_ns () =
  let a =
    Array.init 31 (fun _ ->
        let t0 = Probe.now_ns () in
        ignore (Sys.opaque_identity (kernel ()));
        float_of_int (Probe.now_ns () - t0))
  in
  Array.sort compare a;
  a.(15)

(* One sample between ops: the kernel twice, the second run timed, so a
   sample does not depend on what the op before it left in the caches. *)
let reference_sample_ns () =
  ignore (Sys.opaque_identity (kernel ()));
  let t0 = Probe.now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  float_of_int (Probe.now_ns () - t0)

(* Op-loop time between two samples. Sampling at the round's ends alone
   misses most of the host's slow stretches; a sample every 10 ms costs
   under 2% of the loop. *)
let reference_gap_ns = 10_000_000

(* The kernel's time on that guest when nothing beside it is busy. *)
let reference_nominal_ns = 75_000.0

(* The factor taking a wall time measured while the kernel took
   [kernel_ns] to the kernel's nominal speed: op times are scaled in
   proportion to the kernel's. How much more or less than the kernel the
   ops slow down depends on what else the host runs: on that guest the
   log-log slope of raw op time against kernel time was 1.0 to 1.7 in
   some hours and 0.6 to 0.9 in others, and an exponent fitted in one
   hour widened the spreads in the other (to 29% for fanout_hosted's p99
   with 1.3). 1 lies between the two; see README.md for the spreads it
   leaves. *)
let at_reference kernel_ns = reference_nominal_ns /. kernel_ns

(* The factor for the ops after each sample of [pts]: the median of the
   five samples nearest to it, so a single disturbed sample moves
   nothing and a slow stretch inside a round is followed. *)
let reference_scales pts =
  let n = Array.length pts in
  Array.init n (fun j ->
      let hi = min n (max 0 (j - 2) + 5) in
      let lo = max 0 (hi - 5) in
      at_reference (Report.median (List.init (hi - lo) (fun i -> snd pts.(lo + i)))))

(* The factor for each op of a round of [n] ops, from its kernel
   samples [pts]: (index of the first op after the sample, kernel ns), in
   op order. *)
let factors pts n =
  let scales = reference_scales pts in
  let factor = Array.make n 0.0 and j = ref 0 in
  for i = 0 to n - 1 do
    while !j + 1 < Array.length pts && fst pts.(!j + 1) <= i do
      incr j
    done;
    factor.(i) <- scales.(!j)
  done;
  factor

(* The world of the latest round. One round's worlds at most are kept,
   so the collection before a round frees every other one. *)
let last_world : W.world option ref = ref None

let fresh_heap () =
  last_world := None;
  W.release ();
  Gc.full_major ()

(* How a play runs its ops. An untraced run plays each round once,
   [Plain]. A traced run plays each round twice over the same ops, each
   play in a world of its own built from the same seed: [Plain], and
   [Traced], whose turns alternate between probing every layer and
   letting the library write its trace events with nobody listening. *)
type mode = Plain | Traced of Probe.calibration

(* One play of a round: its world, and the ops it has run. *)
type play = {
  mode : mode;
  ph : phase;
  r : W.round;
  probe_drain : W.drain;  (** [Engine.step] with a probe point before each step *)
  steps : int ref;  (** engine steps [probe_drain] made *)
  mutable n : int;  (** ops run this round *)
  mutable round_kept : (int * kept) list;
      (** traced: (op index, kept op at raw speed, its plain time not yet
          filled in), newest first *)
  mutable round_lib : (int * float) list;
      (** traced: (op index, events) of the unprobed turns' ops that wrote
          events, newest first *)
  reg0 : string -> float;
  supp0 : int;
  egress0 : int;
  k0 : float;  (** kernel ns before the world was built *)
}

let engine_run : W.drain = fun ?until e -> Engine.run ?until e

(* Builds the play's world, timing the build and warm-up into [setups]. *)
let start_play (w : W.workload) ph ~seed ~round ~mode ~setups =
  let steps = ref 0 in
  let probe_drain : W.drain =
   fun ?until e ->
    let rec go () =
      Probe.point Probe.Step;
      if Engine.step ?until e then begin
        incr steps;
        go ()
      end
    in
    go ();
    Option.iter (fun u -> Engine.run ~until:u e) until
  in
  let k0 = reference_ns () in
  let t_setup = Probe.now_ns () in
  let r = w.setup ~seed ~round ~collect:(mode = Plain) in
  Samples.observe setups (float_of_int (Probe.now_ns () - t_setup) *. at_reference k0);
  (* rendering the registry takes up to 40 ms; only the traced play needs it *)
  let reg0 =
    match mode with Traced _ -> W.registry W.registry_names | Plain -> fun _ -> 0.0
  in
  {
    mode;
    ph;
    r;
    probe_drain;
    steps;
    n = 0;
    round_kept = [];
    round_lib = [];
    reg0;
    supp0 = r.suppressed ();
    egress0 = r.egress ();
    k0;
  }

(* Sets the library's tracing for the play's next ops: off for the plain
   play; on for the traced one, with the probes listening if [probe].
   The trace is reset so [Trace.writes] counts the turn's events. *)
let enter (w : W.workload) pl ~probe =
  match pl.mode with
  | Plain -> Obs_trace.set_level Obs_trace.Off
  | Traced _ ->
      Obs_trace.reset ();
      Obs_trace.set_sample_every w.sample_every;
      Obs_trace.set_listener (if probe then Some Probe.listener else None);
      Obs_trace.set_level Obs_trace.Packet

(* Runs the play's next op, every layer probed if [probe]; false when
   its round has no more. *)
let run_op (w : W.workload) pl ~probe =
  pl.r.prepare ()
  && begin
       let p = pl.ph in
       let w0 = Gc.minor_words () in
       let s0 = !(pl.steps) and e0 = Obs_trace.writes () and c0 = pl.r.ctrl_ops () in
       let a = Probe.now_ns () in
       if probe then Probe.op_begin ~ctrl:w.ctrl;
       pl.r.op (if probe then pl.probe_drain else engine_run);
       let keep = probe && ((not w.needs_ingress) || Probe.op_points Probe.Ev_ingress > 0) in
       if probe then Probe.op_end ~keep;
       let b = Probe.now_ns () in
       let words = Gc.minor_words () -. w0 in
       (match pl.mode with
       | Traced cal when probe ->
           if keep then begin
             let events = float_of_int (Probe.op_events ()) in
             let net =
               float_of_int (Probe.op_charged ())
               -. (events *. cal.Probe.event_resid_ns)
               -. (float_of_int (Probe.op_marks ()) *. cal.Probe.mark_resid_ns)
             in
             pl.round_kept <-
               (pl.n, { k_net = net; k_events = events; k_raw = float_of_int (b - a); k_plain = 0.0 })
               :: pl.round_kept;
             p.steps_kept <- p.steps_kept + (!(pl.steps) - s0);
             p.ctrl_ops <- p.ctrl_ops + (pl.r.ctrl_ops () - c0)
           end;
           p.pending_max <- max p.pending_max (Engine.pending pl.r.world.W.engine)
       | Traced _ ->
           let events = Obs_trace.writes () - e0 in
           if events > 0 then pl.round_lib <- (pl.n, float_of_int events) :: pl.round_lib
       | Plain -> ());
       record_op p ~round_op:pl.n ~ns:(b - a) ~words;
       pl.n <- pl.n + 1;
       true
     end

(* Ends the play's round: its ops' times taken to reference speed with
   the kernel samples [pts], the world's counters and its own checks;
   returns the ops' factors to reference speed. *)
let finish_play pl ~pts =
  let p = pl.ph and r = pl.r in
  Samples.observe p.kernel (Report.median (Array.to_list (Array.map snd pts)));
  let factor = factors pts pl.n in
  let round_ns = ref 0.0 in
  for i = 0 to pl.n - 1 do
    let ns = float_of_int p.round_ns.(i) *. factor.(i) in
    round_ns := !round_ns +. ns;
    observe_latency p ns
  done;
  if pl.n > 0 then Samples.observe p.rates (float_of_int pl.n /. (!round_ns /. 1e9));
  (match pl.mode with
  | Traced _ ->
      let reg1 = W.registry W.registry_names in
      List.iter
        (fun name ->
          let prev = Option.value (Hashtbl.find_opt p.reg name) ~default:0.0 in
          Hashtbl.replace p.reg name (prev +. reg1 name -. pl.reg0 name))
        W.registry_names
  | Plain -> ());
  p.suppressed <- p.suppressed + (r.suppressed () - pl.supp0);
  p.egress <- p.egress + (r.egress () - pl.egress0);
  let o = r.finish () in
  p.attempted <- p.attempted + o.W.attempted;
  p.failed <- p.failed + o.W.failed;
  p.frames_decoded <- p.frames_decoded + o.W.frames_decoded;
  p.frames_total <- p.frames_total + o.W.frames_total;
  List.iter
    (fun (name, ok) -> if not (ok || List.mem name p.failures) then p.failures <- name :: p.failures)
    o.W.checks;
  p.rounds <- p.rounds + 1;
  factor

(* One untraced round: a fresh world from [seed] and [round], then ops
   until the round's work is done or [budget_ns] of op-loop wall time is
   spent, the kernel sampled every [reference_gap_ns]; returns that wall
   time. *)
let run_round (w : W.workload) p ~seed ~round ~budget_ns ~setups =
  fresh_heap ();
  let pl = start_play w p ~seed ~round ~mode:Plain ~setups in
  enter w pl ~probe:false;
  let samples = ref [ (0, pl.k0) ] in
  let loop0 = Probe.now_ns () in
  let last_t = ref loop0 in
  let next_sample = ref (loop0 + reference_gap_ns) in
  while !last_t - loop0 < budget_ns && run_op w pl ~probe:false do
    last_t := Probe.now_ns ();
    if !last_t >= !next_sample then begin
      samples := (pl.n, reference_sample_ns ()) :: !samples;
      next_sample := Probe.now_ns () + reference_gap_ns
    end
  done;
  let pts = Array.of_list (List.rev ((pl.n, reference_ns ()) :: !samples)) in
  ignore (finish_play pl ~pts);
  last_world := Some pl.r.W.world;
  !last_t - loop0

(* Op time the plain play runs before the traced play takes its turn
   over the same ops. The host's speed changes over seconds, so the two
   plays of an op, a turn apart, run on the same host; played one round
   after the other, up to 4 s apart, plays of the same ops differed by
   up to 14% after scaling to reference speed, more than the probes
   cost. A turn is long enough that warming the caches up again after
   the other world ran is a small part of it. *)
let turn_ns = 10_000_000

(* One traced round: the two plays' worlds, then turns of ops until the
   round's work is done or the plain play spent [budget_ns]; returns the
   plain play's op time. Each turn ends with a kernel sample both plays
   share, so an op's two times are scaled alike. Two worlds, not one per
   kind of turn: a campus_live world holds about 200 MB. *)
let traced_round (w : W.workload) ~plays:(u, t) ~cal ~seed ~round ~budget_ns ~setups =
  fresh_heap ();
  (* the traced world is built last: the metrics registry shows the
     latest instance of each series *)
  let pu = start_play w u ~seed ~round ~mode:Plain ~setups in
  let pt = start_play w t ~seed ~round ~mode:(Traced cal) ~setups in
  let samples = ref [ (0, reference_ns ()) ] in
  let spent = ref 0 and turn = ref 0 and more = ref true in
  (* A client finds its QoE collectors by key in a process-wide registry,
     and both worlds use the same keys: without a reset before each turn,
     the world playing second would reuse the first one's collectors and
     skip allocating its own. *)
  let enter pl ~probe =
    Scallop_obs.Qoe.reset ();
    enter w pl ~probe
  in
  while !more && !spent < budget_ns do
    enter pu ~probe:false;
    let t0 = Probe.now_ns () and n0 = pu.n in
    while Probe.now_ns () - t0 < turn_ns && run_op w pu ~probe:false do
      ()
    done;
    spent := !spent + (Probe.now_ns () - t0);
    let c = pu.n - n0 in
    (* Every other turn of the traced play runs unprobed: the library
       writes its trace events and nobody listens. Its ops against the
       same ops in the plain play give the library's own cost per event,
       which the probed turns subtract. That cost is a few percent of an
       op and the two plays of an op differ by more than that (a major
       collection lands in one of them), so the estimate needs as many
       ops as the probed turns get. *)
    let probe = !turn land 1 = 0 in
    enter pt ~probe;
    for _ = 1 to c do
      ignore (run_op w pt ~probe)
    done;
    samples := (pu.n, reference_sample_ns ()) :: !samples;
    incr turn;
    more := c > 0
  done;
  Obs_trace.set_level Obs_trace.Off;
  Obs_trace.set_listener (Some Probe.listener);
  let pts = Array.of_list (List.rev ((pu.n, reference_ns ()) :: !samples)) in
  ignore (finish_play pu ~pts);
  let factor = finish_play pt ~pts in
  if pt.n <> pu.n then begin
    let name = "both plays of a round ran the same ops" in
    if not (List.mem name t.failures) then t.failures <- name :: t.failures
  end
  else begin
    List.iter
      (fun (i, events) ->
        t.lib_ns <- t.lib_ns +. (float_of_int (t.round_ns.(i) - u.round_ns.(i)) *. factor.(i));
        t.lib_words <- t.lib_words +. t.round_words.(i) -. u.round_words.(i);
        t.lib_events <- t.lib_events +. events)
      pt.round_lib;
    t.kept <-
      List.map
        (fun (i, k) ->
          let f = factor.(i) in
          {
            k with
            k_net = k.k_net *. f;
            k_raw = k.k_raw *. f;
            k_plain = float_of_int u.round_ns.(i) *. f;
          })
        pt.round_kept
      @ t.kept
  end;
  last_world := Some pt.r.W.world;
  !spent

(* --- metrics ----------------------------------------------------------------------- *)

let ratio a b = if b > 0.0 then a /. b else 0.0

let end_to_end p ~setups =
  let ops = float_of_int p.ops in
  (* a run too short to fill one block reports its partial block *)
  if Samples.count p.p50s = 0 then close_block p;
  let heap = (Gc.quick_stat ()).Gc.top_heap_words in
  [
    Report.metric "ops_per_s" "1/s" (Samples.median p.rates);
    Report.metric "op_p50_us" "us" (Samples.median p.p50s /. 1e3);
    Report.metric "op_p99_us" "us" (Samples.median p.p99s /. 1e3);
    Report.metric "alloc_b_per_op" "B" (p.words *. bytes_per_word /. ops);
    Report.metric "peak_heap_mb" "MB" (float_of_int heap *. bytes_per_word /. 1e6);
    Report.metric "setup_s" "s" (Samples.median setups /. 1e9);
  ]

(* Lines printed beside the declared metrics: what the run covered and
   the workload's own (mostly virtual-time) guards. *)
let context_lines (w : W.workload) p =
  (if p.ops = 0 then []
   else
     [
       Report.metric "raw.ops_per_s" "1/s" (float_of_int p.ops /. (float_of_int p.op_ns /. 1e9));
       Report.metric "reference.kernel_us" "us" (Samples.median p.kernel /. 1e3);
     ])
  @ [
    Report.metric "ops" "count" (float_of_int p.ops);
    Report.metric "rounds" "count" (float_of_int p.rounds);
  ]
  @ w.extras ()

let fail_ratio ~failed ~attempted =
  Report.metric "fail_ratio" "ratio" (ratio (float_of_int failed) (float_of_int attempted))

(* Consecutive kept ops in groups of [chunk_ops], summed: the
   reconciliation takes medians over chunks, so a stretch of host noise
   in one play cannot decide it. *)
let chunk_ops = 64

let chunks kept =
  let add a b =
    {
      k_net = a.k_net +. b.k_net;
      k_events = a.k_events +. b.k_events;
      k_raw = a.k_raw +. b.k_raw;
      k_plain = a.k_plain +. b.k_plain;
    }
  in
  let rec go acc cur n = function
    | [] -> ( match cur with None -> acc | Some c -> c :: acc)
    | k :: rest -> (
        let cur = match cur with None -> k | Some c -> add c k in
        if n + 1 = chunk_ops then go (cur :: acc) None 0 rest
        else go acc (Some cur) (n + 1) rest)
  in
  go [] None 0 kept

let per_layer ~traced ~(cal : Probe.calibration) =
  let kept = float_of_int !Probe.kept_ops in
  let chunks = chunks traced.kept in
  let median_of f = match chunks with [] -> 0.0 | l -> Report.median (List.map f l) in
  (* pooled over every op, not a median over chunks: an op's own
     difference is mostly noise, and most of a campus_live op's events
     come in a few ops *)
  let lib_ns = ratio traced.lib_ns traced.lib_events
  and lib_words = ratio traced.lib_words traced.lib_events in
  let lib_charge = Float.max 0.0 lib_ns in
  let calibrated c = c.k_net -. (c.k_events *. lib_charge) in
  (* the layer totals are raw wall time; their ns per op are reported at
     reference speed, like the end-to-end times *)
  let speed = at_reference (Samples.median traced.kernel) in
  let layers =
    Probe.calibrated cal ~lib_ns:(lib_charge /. speed) ~lib_words:(Float.max 0.0 lib_words)
  in
  let sum = Array.fold_left (fun acc (_, ns, _) -> acc +. ns) 0.0 layers in
  let traced_ns = ratio sum kept *. speed in
  let reg name = Option.value (Hashtbl.find_opt traced.reg name) ~default:0.0 in
  let pts p = float_of_int (Probe.total_points p) in
  let ops = float_of_int traced.ops in
  let layer_metrics =
    Array.to_list layers
    |> List.concat_map (fun (l, ns, words) ->
           let name = Probe.layer_name l in
           [
             Report.metric (name ^ ".ns_per_op") "ns" (ratio ns kept *. speed);
             Report.metric (name ^ ".share_pct") "%" (100.0 *. ratio ns sum);
             Report.metric (name ^ ".b_per_op") "B" (ratio (words *. bytes_per_word) kept);
           ])
  in
  let hits = reg "scallop_pre_cache_hits" and misses = reg "scallop_pre_cache_misses" in
  let fast = reg "scallop_dp_fast_pkts" and slow = reg "scallop_dp_slow_pkts" in
  let recycled = reg "scallop_dp_alloc_recycled_buffers"
  and fresh = reg "scallop_dp_alloc_fresh_buffers" in
  let supp = float_of_int traced.suppressed and egress = float_of_int traced.egress in
  let ctrl_ops = float_of_int traced.ctrl_ops in
  layer_metrics
  @ [
      Report.metric "tofino.pre.cache_hit_ratio" "ratio" (ratio hits (hits +. misses));
      Report.metric "tofino.pre.invalidations" "count" (reg "scallop_pre_cache_invalidations");
      Report.metric "dataplane.fast_path_ratio" "ratio" (ratio fast (fast +. slow));
      Report.metric "dataplane.suppressed_ratio" "ratio" (ratio supp (supp +. egress));
      Report.metric "util.bufpool.recycle_ratio" "ratio" (ratio recycled (recycled +. fresh));
      Report.metric "netsim.link.hops_per_op" "count" (ratio (pts Probe.Ev_link_enqueue) kept);
      Report.metric "netsim.link.drops" "count" (pts Probe.Ev_link_drop);
      Report.metric "netsim.eventq.events_per_op" "count"
        (ratio (float_of_int traced.steps_kept) kept);
      Report.metric "netsim.eventq.pending_max" "count" (float_of_int traced.pending_max);
      Report.metric "webrtc.client.rx_per_op" "count" (ratio (pts Probe.Rx_hook) kept);
      Report.metric "codec.frames_decoded_ratio" "ratio"
        (ratio (float_of_int traced.frames_decoded) (float_of_int traced.frames_total));
      Report.metric "switch_agent.ops_per_batch" "count"
        (ratio (pts Probe.Ev_batch_op) (pts Probe.Ev_batch_begin));
      Report.metric "rpc_transport.retries_per_op" "count" (ratio (reg "scallop_rpc_retries") ops);
      Report.metric "rpc_transport.wire_reqs_per_op" "count"
        (ratio (reg "scallop_rpc_wire_requests") ops);
      Report.metric "controller.ops_per_flush" "count" (ratio ctrl_ops (pts Probe.Ev_batch_begin));
      Report.metric "rpc.codec.ns_per_msg" "ns" (W.rpc_codec_ns ());
      Report.metric "journal.append.ns_per_op" "ns" (W.journal_append_ns (Option.get !last_world));
      Report.metric "obs.trace.probe_ns_per_event" "ns" cal.Probe.event_ns;
      Report.metric "obs.trace.lib_ns_per_event" "ns" lib_ns;
      Report.metric "obs.trace.overhead_pct" "%"
        (100.0 *. (median_of (fun c -> c.k_raw /. c.k_plain) -. 1.0));
      Report.metric "bench.traced_ns_per_op" "ns" traced_ns;
      Report.metric "bench.reconcile_pct" "%"
        (100.0 *. (median_of (fun c -> calibrated c /. c.k_plain) -. 1.0));
      Report.metric "bench.sampled_ops" "count" kept;
    ]

(* --- one run ------------------------------------------------------------------------- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  declared : Report.metric list;
  lines : Report.metric list;  (** everything, declared ones included *)
  failures : string list;
}

let reconcile_limit_pct = 10.0

(* A fresh process runs slow for its first second or so (the heap and
   the allocator's thresholds grow), so every run first spends this much
   op-loop time on round 0, unmeasured. *)
let warmup_ns = 1_500_000_000

let run (w : W.workload) ~seed ~seconds ~trace ~smoke =
  Obs_trace.set_listener (Some Probe.listener);
  (* the ledger keeps its own spans; a one-slot ring keeps the library's
     sink cheap *)
  Obs_trace.set_capacity 1;
  let budget_ns = int_of_float (seconds *. 1e9) in
  let max_rounds = if smoke then 1 else max_int in
  if not smoke then
    ignore (run_round w (new_phase ()) ~seed ~round:0 ~budget_ns:warmup_ns ~setups:(Samples.create ()));
  let setups = Samples.create () in
  let u = new_phase () in
  if not trace then begin
    let rec rounds round spent =
      if spent < budget_ns && round < max_rounds then
        rounds (round + 1) (spent + run_round w u ~seed ~round ~budget_ns:(budget_ns - spent) ~setups)
    in
    rounds 0 0;
    let checks = ("at least one op ran", u.ops > 0) :: w.final_check ~seed in
    let failures =
      u.failures @ List.filter_map (fun (n, ok) -> if ok then None else Some n) checks
    in
    let declared = if u.ops > 0 then end_to_end u ~setups else [] in
    {
      correct = failures = [] && u.failed = 0;
      attempted = u.attempted;
      failed = u.failed;
      declared;
      lines = declared @ context_lines w u @ [ fail_ratio ~failed:u.failed ~attempted:u.attempted ];
      failures;
    }
  end
  else begin
    let cal = Probe.calibrate ~k:(if smoke then 5_000 else 100_000) in
    Probe.start_layer := w.start_layer;
    Probe.reset_totals ();
    let t = new_phase () in
    (* the plain play's op time is half the budget: with the traced play
       the ops take about two and a half times as long *)
    let rec rounds round spent =
      if spent < budget_ns / 2 && round < max_rounds then
        rounds (round + 1)
          (spent
          + traced_round w ~plays:(u, t) ~cal ~seed ~round ~budget_ns:((budget_ns / 2) - spent)
              ~setups)
    in
    rounds 0 0;
    let declared = per_layer ~traced:t ~cal in
    let reconcile =
      List.find (fun m -> m.Report.name = "bench.reconcile_pct") declared
    in
    let checks =
      (("at least one op was traced", !Probe.kept_ops > 0) :: w.final_check ~seed)
      @ [
          ( Printf.sprintf "layer sum within %.0f%% of the untraced op time" reconcile_limit_pct,
            smoke || Float.abs reconcile.Report.value <= reconcile_limit_pct );
        ]
    in
    let failures =
      u.failures @ t.failures
      @ List.filter_map (fun (n, ok) -> if ok then None else Some n) checks
    in
    if not smoke then begin
      (try Unix.mkdir "ledger-out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Probe.write_chrome (Printf.sprintf "ledger-out/trace-%s-%d.json" w.name seed)
    end;
    let attempted = u.attempted + t.attempted and failed = u.failed + t.failed in
    (* the untraced guards belong to untraced runs: a traced run's lines
       stay apart from theirs in [compare] and [row] *)
    {
      correct = failures = [] && failed = 0;
      attempted;
      failed;
      declared;
      lines = declared @ [ fail_ratio ~failed ~attempted ];
      failures;
    }
  end

(* --- commands ------------------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: ledger.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       ledger.exe compare DIR_A DIR_B [--spec BENCHMARK.json]\n\
    \       ledger.exe row DIR --sha SHA\n\
    \       ledger.exe smoke BENCHMARK.json";
  exit 2

let rec flags acc = function
  | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> flags ((k, v) :: acc) rest
  | [] -> acc
  | _ -> usage ()

let run_cmd args =
  let f = flags [] args in
  let get k = match List.assoc_opt k f with Some v -> v | None -> usage () in
  let int_of k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let name = get "--workload" in
  let w =
    match W.find name with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" name
          (String.concat ", " (List.map (fun (w : W.workload) -> w.name) W.all));
        exit 2
  in
  let seed = int_of "--seed" and seconds = int_of "--seconds" in
  let trace =
    match get "--trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  if seconds < 1 then usage ();
  let r = run w ~seed ~seconds:(float_of_int seconds) ~trace ~smoke:false in
  Printf.printf "# workload %s: %s, seed %d, %s run\n" w.name w.op_unit seed
    (if trace then "traced" else "untraced");
  List.iter (fun m -> print_endline (Report.line ~workload:w.name m)) r.lines;
  List.iter (fun n -> Printf.printf "# CHECK FAILED: %s\n" n) r.failures;
  print_endline
    (Report.result_json ~correct:r.correct ~attempted:r.attempted ~failed:r.failed r.declared);
  if not r.correct then exit 1

(* Bounds of the lines the JSON result does not carry: the virtual-time
   guards are deterministic per seed, so they get tight bounds. *)
type bound = Rel of float | Abs of float

let extra_bounds =
  [
    ("m2e_p99_ms", (false, Rel 0.02));
    ("freeze_ratio", (false, Abs 0.001));
    ("ctrl_virt_ops_per_s", (true, Rel 0.02));
    ("ctrl_virt_p99_ms", (false, Rel 0.02));
    ("fail_ratio", (false, Abs 0.0));
  ]

let group runs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (r : Report.row) ->
         let key = (r.r_workload, r.r_metric) in
         let prev = Option.value (Hashtbl.find_opt tbl key) ~default:[] in
         Hashtbl.replace tbl key (r.r_value :: prev)))
    runs;
  tbl

let compare_cmd a b spec_path =
  let spec = Report.read_spec spec_path in
  let bound_of metric =
    match List.find_opt (fun d -> d.Report.d_name = metric) spec.end_to_end with
    | Some { d_higher; d_bound = Some x; _ } -> Some (d_higher, Rel x)
    | Some _ -> None
    | None -> List.assoc_opt metric extra_bounds
  in
  let ga = group (Report.read_dir a) and gb = group (Report.read_dir b) in
  let keys =
    Hashtbl.fold (fun k _ acc -> if Hashtbl.mem gb k then k :: acc else acc) ga []
    |> List.sort compare
  in
  let bad = ref 0 in
  Printf.printf "%-14s %-28s %34s %34s %9s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "B vs A";
  List.iter
    (fun ((workload, metric) as k) ->
      match bound_of metric with
      | None -> ()
      | Some (higher, bound) ->
          let qa1, ma, qa3 = Report.quartiles (Hashtbl.find ga k) in
          let qb1, mb, qb3 = Report.quartiles (Hashtbl.find gb k) in
          let rel = if ma <> 0.0 then (mb -. ma) /. Float.abs ma else 0.0 in
          let flagged =
            match bound with
            | Rel x when metric = "setup_s" -> Float.abs (mb -. ma) >= 0.05 && Float.abs rel > x
            | Rel x -> Float.abs rel > x
            | Abs x -> if higher then ma -. mb > x else mb -. ma > x
          in
          if flagged then incr bad;
          Printf.printf "%-14s %-28s %12.5g [%9.5g, %9.5g] %12.5g [%9.5g, %9.5g] %+8.2f%%%s\n"
            workload metric ma qa1 qa3 mb qb1 qb3 (100.0 *. rel)
            (if flagged then "  OUT OF BOUND" else ""))
    keys;
  Printf.printf "%d of %d bounded (metric, workload) pairs out of bound\n" !bad
    (List.length (List.filter (fun (_, m) -> bound_of m <> None) keys));
  if !bad > 0 then exit 1

let row_cmd dir sha =
  let runs = Report.read_dir dir in
  let g = group runs in
  let by_workload = Hashtbl.create 8 in
  Hashtbl.iter
    (fun (workload, metric) values ->
      let prev = Option.value (Hashtbl.find_opt by_workload workload) ~default:[] in
      Hashtbl.replace by_workload workload ((metric, Report.median values, List.length values) :: prev))
    g;
  let workloads =
    Hashtbl.fold (fun k v acc -> (k, List.sort compare v) :: acc) by_workload []
    |> List.sort compare
  in
  let obj =
    List.map
      (fun (workload, ms) ->
        Printf.sprintf "\"%s\": {%s}" (Report.escape workload)
          (String.concat ", "
             (List.map
                (fun (m, v, _) -> Printf.sprintf "\"%s\": %s" (Report.escape m) (Report.number v))
                ms)))
      workloads
  in
  let runs_per =
    List.map
      (fun (workload, ms) ->
        Printf.sprintf "\"%s\": %d" workload
          (List.fold_left (fun acc (_, _, n) -> max acc n) 0 ms))
      workloads
  in
  Printf.printf "{\"sha\": \"%s\", \"nproc\": %d, \"runs\": {%s}, \"medians\": {%s}}\n"
    (Report.escape sha) (Domain.recommended_domain_count ()) (String.concat ", " runs_per)
    (String.concat ", " obj)

(* Tiny rounds, a 50 ms budget, no reconciliation gate (too few ops for
   a stable time) and no Chrome trace; names, units and correctness are
   what is checked. *)
let smoke_cmd spec_path =
  let spec = Report.read_spec spec_path in
  W.tiny ();
  let names ds = List.map (fun d -> d.Report.d_name) ds in
  let ok = ref true in
  let expect what want got =
    if List.sort compare want <> List.sort compare got then begin
      ok := false;
      Printf.printf "smoke: %s: declared [%s], emitted [%s]\n" what (String.concat " " want)
        (String.concat " " got)
    end
  in
  expect "workloads" spec.workloads (List.map (fun (w : W.workload) -> w.name) W.all);
  List.iter
    (fun (w : W.workload) ->
      List.iter
        (fun trace ->
          let t0 = Probe.now_ns () in
          let r = run w ~seed:1 ~seconds:0.05 ~trace ~smoke:true in
          let declared = if trace then spec.per_layer else spec.end_to_end in
          let what = Printf.sprintf "%s %s" w.name (if trace then "traced" else "untraced") in
          Printf.printf "smoke: %s ran in %.2f s\n%!" what (float_of_int (Probe.now_ns () - t0) /. 1e9);
          expect what (names declared) (List.map (fun m -> m.Report.name) r.declared);
          List.iter
            (fun (d : Report.declared) ->
              match List.find_opt (fun m -> m.Report.name = d.d_name) r.declared with
              | Some m when m.Report.unit_ <> d.d_unit ->
                  ok := false;
                  Printf.printf "smoke: %s: %s in %s, declared %s\n" what d.d_name m.unit_ d.d_unit
              | Some _ | None -> ())
            declared;
          if not r.correct then begin
            ok := false;
            Printf.printf "smoke: %s: checks failed: %s\n" what (String.concat "; " r.failures)
          end)
        [ false; true ])
    W.all;
  if not !ok then exit 1;
  print_endline "smoke: ok"

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: a :: b :: rest ->
      let spec = match rest with [ "--spec"; s ] -> s | [] -> "BENCHMARK.json" | _ -> usage () in
      compare_cmd a b spec
  | [ "row"; dir; "--sha"; sha ] -> row_cmd dir sha
  | [ "smoke"; spec ] -> smoke_cmd spec
  | args -> run_cmd args
