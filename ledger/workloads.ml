(* The four workloads. Every world is built from the core constructors
   only — Engine, Network, Dataplane, Switch_agent, a batched and
   journaled Controller, Webrtc.Client and the campus Trace.Dataset — so
   the ledger measures the configuration the experiments run.

   A run is a sequence of rounds. A round builds a fresh world from the
   seed and the round number, warms it up, then offers a fixed amount
   of work one op at a time; the harness times each op. Fresh worlds
   keep memory and per-op cost independent of how far a run gets. *)

module Addr = Scallop_util.Addr
module Rng = Scallop_util.Rng
module Engine = Netsim.Engine
module Network = Netsim.Network
module Link = Netsim.Link
module Dgram = Netsim.Dgram
module Client = Webrtc.Client
module Controller = Scallop.Controller
module Dataplane = Scallop.Dataplane
module Dd = Av1.Dd
module Report = Bench_report

(* --- worlds ------------------------------------------------------------------ *)

type world = {
  engine : Engine.t;
  network : Network.t;
  rng : Rng.t;
  ctl : Controller.t;
  dps : Dataplane.t array;
  mutable clients : int;
}

(* The switch's own port and the senders injecting into it: unconstrained. *)
let switch_link =
  { Link.default with rate_bps = infinity; propagation_ns = 100_000; queue_bytes = max_int / 2 }

(* Receiver access links: 100 Mb/s, 5 ms, a deep queue. *)
let access_link =
  { Link.default with rate_bps = 100e6; propagation_ns = 5_000_000; queue_bytes = 1_000_000 }

(* Control datagrams seen on any control channel, kept for the codec
   timing after the run. *)
let capture_cap = 4096
let captured = ref []
let n_captured = ref 0

let tap_channel ch =
  Netsim.Control_channel.set_interposer ch
    (Some
       (fun ~dir d ->
         Probe.point
           (match dir with
           | Netsim.Control_channel.Fwd -> Probe.Ctl_fwd
           | Netsim.Control_channel.Rev -> Probe.Ctl_rev);
         if !n_captured < capture_cap then begin
           captured := d.Dgram.payload :: !captured;
           incr n_captured
         end;
         Netsim.Control_channel.Deliver))

(* Drop the process-wide registries' hold on the last world, so a
   collection can free it before the next one is built. *)
let release () =
  Scallop_obs.Qoe.reset ();
  Scallop_obs.Metrics.reset ();
  Scallop_obs.Trace.set_clock (fun () -> 0)

let make_world ~seed ~switches ?rewrite ?control () =
  release ();
  Scallop_obs.Trace.register_metrics ();
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let network = Network.create engine (Rng.split rng) in
  let agents =
    List.init switches (fun i ->
        let ip = Addr.ip_of_string (Printf.sprintf "10.0.0.%d" (i + 1)) in
        Network.add_host network ~ip ~uplink:switch_link ~downlink:switch_link ();
        let dp =
          Dataplane.create engine network ~ip ~obs_label:(Printf.sprintf "sw%d" i) ()
        in
        (Scallop.Switch_agent.create engine dp ?rewrite (), dp))
  in
  let ctl =
    Controller.create engine network (Rng.split rng) ~agents ?control ~batch:true
      ~journal:(Scallop.Journal.create ()) ()
  in
  for i = 0 to switches - 1 do
    tap_channel (Scallop.Rpc_transport.Client.channel (Controller.control_channel ctl i))
  done;
  { engine; network; rng; ctl; dps = Array.of_list (List.map snd agents); clients = 0 }

(* Clients without media or timers: they only answer what reaches them. *)
let quiet ~ip =
  let never = Engine.sec 1e7 in
  {
    (Client.default_config ~ip) with
    Client.send_video = false;
    send_audio = false;
    sr_interval_ns = never;
    remb_poll_interval_ns = never;
    nack_poll_interval_ns = never;
    stun_interval_ns = never;
    rr_interval_ns = never;
  }

(* [hosted:false] leaves the address without a network host: datagrams
   to it are dropped as undeliverable where they are sent. *)
let add_client w ~config ~hosted ~link =
  w.clients <- w.clients + 1;
  let n = w.clients in
  let ip =
    Addr.ip_of_string (Printf.sprintf "10.%d.%d.%d" (1 + (n / 65536)) (n / 256 mod 256) (n mod 256))
  in
  if hosted then Network.add_host w.network ~ip ~uplink:link ~downlink:link ();
  let c = Client.create w.engine w.network (Rng.split w.rng) (config ~ip) in
  Client.set_tx_hook c Probe.tx_hook;
  Client.set_rx_hook c Probe.rx_hook;
  c

let sub_seed seed round = (seed * 1_000_003) + round

(* --- registry counters ------------------------------------------------------- *)

(* Sum of every series of the given names in [Metrics.dump], over all
   label sets. *)
let registry names =
  let sums = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace sums n 0.0) names;
  String.split_on_char '\n' (Scallop_obs.Metrics.dump ())
  |> List.iter (fun l ->
         if l <> "" && l.[0] <> '#' then
           match String.rindex_opt l ' ' with
           | None -> ()
           | Some sp -> (
               let key = String.sub l 0 sp in
               let name =
                 match String.index_opt key '{' with
                 | Some b -> String.sub key 0 b
                 | None -> key
               in
               match
                 (Hashtbl.find_opt sums name,
                  float_of_string_opt (String.sub l (sp + 1) (String.length l - sp - 1)))
               with
               | Some acc, Some v -> Hashtbl.replace sums name (acc +. v)
               | _ -> ()));
  fun n -> Option.value (Hashtbl.find_opt sums n) ~default:0.0

let registry_names =
  [
    "scallop_pre_cache_hits";
    "scallop_pre_cache_misses";
    "scallop_pre_cache_invalidations";
    "scallop_dp_fast_pkts";
    "scallop_dp_slow_pkts";
    "scallop_dp_alloc_recycled_buffers";
    "scallop_dp_alloc_fresh_buffers";
    "scallop_rpc_retries";
    "scallop_rpc_wire_requests";
  ]

(* --- the round interface ------------------------------------------------------ *)

(* How an op runs the engine: [Engine.run] untraced, a probed
   [Engine.step] loop traced. *)
type drain = ?until:int -> Engine.t -> unit

type outcome = {
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  frames_decoded : int;
  frames_total : int;
}

type round = {
  prepare : unit -> bool;  (** make the next op's input; [false] when the round is done *)
  op : drain -> unit;  (** the timed op *)
  finish : unit -> outcome;  (** drain, then check the round's outputs *)
  world : world;
  ctrl_ops : unit -> int;  (** controller operations issued so far *)
  suppressed : unit -> int;  (** replicas the data planes suppressed so far *)
  egress : unit -> int;  (** replicas the data planes emitted so far *)
}

type workload = {
  name : string;
  op_unit : string;  (** what one op is *)
  sample_every : int;  (** 1-in-N packet sampling in the traced phase *)
  ctrl : bool;  (** every op is one controller operation *)
  start_layer : Probe.layer;  (** the layer running between op start and the first point *)
  needs_ingress : bool;  (** a traced op counts only if its packet was sampled *)
  setup : seed:int -> round:int -> collect:bool -> round;
  extras : unit -> Report.metric list;  (** workload-specific lines, from collected rounds *)
  final_check : seed:int -> (string * bool) list;
}

let dp_counter f w = Array.fold_left (fun acc dp -> acc + f dp) 0 w.dps

(* --- round sizes ---------------------------------------------------------------- *)

(* Warm-up and work per round. [tiny] shrinks them for the smoke run. *)
type sizes = {
  mutable bare_warmup : int;  (** packets *)
  mutable bare_ops : int;
  mutable hosted_warmup : int;
  mutable hosted_ops : int;
  mutable campus_warmup_ns : int;  (** virtual time before the timed slices *)
  mutable campus_round_ns : int;  (** virtual time a round plays *)
  mutable campus_cap : int;  (** live participants at most *)
  mutable churn_meetings : int;
}

let size =
  {
    bare_warmup = 4096;
    bare_ops = 50_000;
    hosted_warmup = 256;
    hosted_ops = 2_000;
    campus_warmup_ns = Engine.sec 2.0;
    campus_round_ns = Engine.sec 6.0;
    campus_cap = 40;
    churn_meetings = 2;
  }

let tiny () =
  size.bare_warmup <- 64;
  size.bare_ops <- 256;
  size.hosted_warmup <- 16;
  size.hosted_ops <- 64;
  size.campus_warmup_ns <- Engine.ms 20;
  size.campus_round_ns <- Engine.ms 40;
  size.campus_cap <- 6;
  size.churn_meetings <- 1

(* --- media input ------------------------------------------------------------- *)

(* One SVC sender's stream in media-time order: L1T3 video frames from
   [Codec.Video_source] every 33.3 ms, interleaved with 20 ms audio
   packets. Each packet carries its DD template id (-1 for audio).
   Sequence numbers restart at 0 every round, so no round crosses the
   16-bit wrap: [Codec.Video_receiver] never decodes a frame whose
   packets straddle it (its contiguity check sorts the raw numbers). *)
type media = {
  video : Codec.Video_source.t;
  audio : Codec.Audio_source.t;
  mutable next_video_ns : int;
  mutable next_audio_ns : int;
  mutable video_seq : int;
  mutable audio_seq : int;
  pending : (bytes * int) Queue.t;
}

let media rng ~video_ssrc ~audio_ssrc =
  {
    video = Codec.Video_source.create (Rng.split rng) (Codec.Video_source.default_config ~ssrc:video_ssrc);
    audio = Codec.Audio_source.create (Rng.split rng) (Codec.Audio_source.default_config ~ssrc:audio_ssrc);
    next_video_ns = 0;
    next_audio_ns = 0;
    video_seq = 0;
    audio_seq = 0;
    pending = Queue.create ();
  }

let frame_interval_ns = 33_333_333

let refill m =
  if m.next_audio_ns < m.next_video_ns then begin
    let p = Codec.Audio_source.next_packet m.audio ~time_ns:m.next_audio_ns in
    Queue.push (Rtp.Packet.serialize (Rtp.Packet.with_sequence p m.audio_seq), -1) m.pending;
    m.audio_seq <- m.audio_seq + 1;
    m.next_audio_ns <- m.next_audio_ns + Codec.Audio_source.interval_ns
  end
  else begin
    let f = Codec.Video_source.next_frame m.video ~time_ns:m.next_video_ns in
    List.iter
      (fun p ->
        let p = Rtp.Packet.with_sequence p m.video_seq in
        m.video_seq <- m.video_seq + 1;
        Queue.push (Rtp.Packet.serialize p, f.Codec.Video_source.template_id) m.pending)
      f.Codec.Video_source.packets;
    m.next_video_ns <- m.next_video_ns + frame_interval_ns
  end

let next_packet m =
  if Queue.is_empty m.pending then refill m;
  Queue.pop m.pending

(* --- fan-out: one sender, 30 receivers --------------------------------------- *)

let receivers = 30

(* The decode target of receiver [i]: 10 each at 30, 15 and 7.5 fps when
   [split], else all at 30 fps. *)
let target ~split i =
  if not split then Dd.DT_30fps
  else if i < 10 then Dd.DT_30fps
  else if i < 20 then Dd.DT_15fps
  else Dd.DT_7_5fps

type fanout_world = {
  fw : world;
  send : bytes -> unit;
  gen : media;
  recv : Client.connection array;  (** each receiver's connection from the sender *)
}

(* The meeting is built through the controller: the sender joins, then
   the receivers; [split] pins two thirds of them to lower decode
   targets (RA-SR with S-LR rewriting), otherwise the meeting stays NRA. *)
let fanout_world ~seed ~hosted ~split =
  let fw =
    make_world ~seed ~switches:1
      ~rewrite:(if split then Scallop.Seq_rewrite.S_LR else Scallop.Seq_rewrite.S_LM)
      ()
  in
  let mid = Controller.create_meeting fw.ctl in
  let sender = add_client fw ~config:quiet ~hosted:true ~link:switch_link in
  let spid = Controller.join fw.ctl mid sender ~send_media:true in
  let rx =
    Array.init receivers (fun _ ->
        let c = add_client fw ~config:quiet ~hosted ~link:access_link in
        Controller.join fw.ctl mid c ~send_media:false)
  in
  Array.iteri
    (fun i pid ->
      let t = target ~split i in
      if t <> Dd.DT_30fps then Controller.set_pair_target fw.ctl ~sender:spid ~receiver:pid t)
    rx;
  Engine.run fw.engine ~until:(Engine.now fw.engine + Engine.ms 20);
  let conn = Option.get (Controller.send_connection fw.ctl spid) in
  let src = Client.local_addr conn and dst = Client.remote_addr conn in
  let info = Option.get (Controller.participant_sender_info fw.ctl spid) in
  let gen =
    media (Rng.split fw.rng) ~video_ssrc:info.Controller.video_ssrc
      ~audio_ssrc:info.Controller.audio_ssrc
  in
  {
    fw;
    send = (fun payload -> Network.send fw.network (Dgram.v ~src ~dst payload));
    gen;
    recv = Array.map (fun pid -> Option.get (Controller.recv_connection fw.ctl pid ~from:spid)) rx;
  }

(* Replicas each packet should produce: audio and descriptor-less video
   go to everyone, a video packet skips receivers whose target drops its
   template. *)
let expected_suppressed ~split template =
  if template < 0 then 0
  else begin
    let n = ref 0 in
    for i = 0 to receivers - 1 do
      if not (Dd.template_in_target_l1t3 template (target ~split i)) then incr n
    done;
    !n
  end


(* fanout_bare: closed loop, the next packet once the engine is
   quiescent; receivers unhosted, so replicas die at the switch's
   egress. *)
let fanout_bare =
  let setup ~seed ~round ~collect:_ =
    let f = fanout_world ~seed:(sub_seed seed round) ~hosted:false ~split:true in
    let w = f.fw in
    let dp = w.dps.(0) in
    let rejected () = (Dataplane.ingress_counters dp).Dataplane.other_pkts in
    let egress0 = Dataplane.egress_pkts dp in
    let rej0 = rejected () in
    let expect_supp = ref 0 and sent = ref 0 in
    let payload = ref Bytes.empty in
    let prepare () =
      if !sent >= size.bare_warmup + size.bare_ops then false
      else begin
        let buf, template = next_packet f.gen in
        expect_supp := !expect_supp + expected_suppressed ~split:true template;
        payload := buf;
        true
      end
    in
    let op (drain : drain) =
      incr sent;
      f.send !payload;
      drain ~until:(Engine.now w.engine + Engine.ms 1) w.engine
    in
    for _ = 1 to size.bare_warmup do
      ignore (prepare ());
      op (fun ?until e -> Engine.run ?until e)
    done;
    let timed0 = !sent in
    let finish () =
      Engine.run w.engine ~until:(Engine.now w.engine + Engine.ms 10);
      let egress = Dataplane.egress_pkts dp - egress0 in
      let rej = rejected () - rej0 in
      let pool = Dataplane.pool_stats dp in
      {
        attempted = !sent - timed0;
        failed = rej;
        checks =
          [
            (* the PRE prunes most of the withheld replicas, egress
               suppression the rest: only the emitted count is exact *)
            ( "replicas emitted match the decode targets",
              egress = (!sent * receivers) - !expect_supp );
            ("replica buffer pool drained", pool.Scallop_util.Bufpool.live = 0);
          ];
        frames_decoded = 0;
        frames_total = 0;
      }
    in
    {
      prepare;
      op;
      finish;
      world = w;
      ctrl_ops = (fun () -> 0);
      suppressed = (fun () -> Dataplane.replicas_suppressed dp);
      egress = (fun () -> Dataplane.egress_pkts dp);
    }
  in
  (* Both forwarding paths over the same 2,000 packets, byte-compared. *)
  let final_check ~seed =
    let f = fanout_world ~seed:(sub_seed seed 0) ~hosted:false ~split:true in
    let dp = f.fw.dps.(0) in
    Dataplane.set_mode dp Dataplane.Paranoid;
    let ok =
      match
        for _ = 1 to 2_000 do
          f.send (fst (next_packet f.gen));
          Engine.run f.fw.engine ~until:(Engine.now f.fw.engine + Engine.ms 1)
        done
      with
      | () -> (Dataplane.fastpath_stats dp).Dataplane.fp_paranoid_mismatches = 0
      | exception Dataplane.Differential_mismatch msg ->
          prerr_endline ("differential mismatch: " ^ msg);
          false
    in
    [ ("paranoid differential on 2,000 packets", ok) ]
  in
  {
    name = "fanout_bare";
    op_unit = "ingress packet";
    sample_every = 8;
    ctrl = false;
    start_layer = Probe.Link;
    needs_ingress = true;
    setup;
    extras = (fun () -> []);
    final_check;
  }


(* fanout_hosted: closed loop, each packet followed by 1 ms of virtual
   time; every receiver is a hosted client that parses and decodes. *)
let fanout_hosted =
  let setup ~seed ~round ~collect:_ =
    let f = fanout_world ~seed:(sub_seed seed round) ~hosted:true ~split:false in
    let w = f.fw in
    let dp = w.dps.(0) in
    let rejected () = (Dataplane.ingress_counters dp).Dataplane.other_pkts in
    let rej0 = rejected () in
    let sent = ref 0 and frames = ref 0 in
    let payload = ref Bytes.empty and template = ref (-1) in
    (* a full round ends on a frame boundary; a round the time budget
       cuts short checks only the frames it finished sending *)
    let prepare () =
      if !sent >= size.hosted_warmup + size.hosted_ops && Queue.is_empty f.gen.pending
      then false
      else begin
        let buf, t = next_packet f.gen in
        payload := buf;
        template := t;
        true
      end
    in
    let op (drain : drain) =
      incr sent;
      if !template >= 0 && Queue.is_empty f.gen.pending then incr frames;
      f.send !payload;
      drain ~until:(Engine.now w.engine + Engine.ms 1) w.engine
    in
    for _ = 1 to size.hosted_warmup do
      ignore (prepare ());
      op (fun ?until e -> Engine.run ?until e)
    done;
    let finish () =
      Engine.run w.engine ~until:(Engine.now w.engine + Engine.ms 100);
      let frames = !frames in
      let got conn =
        let v = Option.get (Client.receiver conn) in
        ( Codec.Video_receiver.frames_decoded v,
          Codec.Video_receiver.packets_received v + Client.audio_packets_received conn )
      in
      let decoded = Array.map (fun c -> fst (got c)) f.recv in
      let received = Array.fold_left (fun acc c -> acc + snd (got c)) 0 f.recv in
      let expected = receivers * !sent in
      let rej = rejected () - rej0 in
      {
        attempted = expected;
        failed = expected - received + (rej * receivers);
        checks =
          [
            ("every receiver decoded every frame sent", Array.for_all (fun d -> d = frames) decoded);
            ("every replica reached its receiver", received = expected);
          ];
        frames_decoded = Array.fold_left ( + ) 0 decoded;
        frames_total = frames * receivers;
      }
    in
    {
      prepare;
      op;
      finish;
      world = w;
      ctrl_ops = (fun () -> 0);
      suppressed = (fun () -> Dataplane.replicas_suppressed dp);
      egress = (fun () -> Dataplane.egress_pkts dp);
    }
  in
  {
    name = "fanout_hosted";
    op_unit = "ingress packet";
    sample_every = 4;
    ctrl = false;
    start_layer = Probe.Link;
    needs_ingress = true;
    setup;
    extras = (fun () -> []);
    final_check = (fun ~seed:_ -> []);
  }

(* --- campus_live ---------------------------------------------------------------- *)

let hour_ns = 3_600_000_000_000
let day_ns = 24 * hour_ns
let campus_window_s = 30
let campus_max_size = 6

(* The weekday hour in which the most meetings of at most
   [campus_max_size] participants start. *)
let busiest_hour (ds : Trace.Dataset.t) =
  let counts = Hashtbl.create 128 in
  Array.iter
    (fun (m : Trace.Dataset.meeting) ->
      let day = m.start_ns / day_ns in
      if day mod 7 < 5 && m.size <= campus_max_size then begin
        let h = m.start_ns / hour_ns in
        Hashtbl.replace counts h (1 + Option.value (Hashtbl.find_opt counts h) ~default:0)
      end)
    ds.Trace.Dataset.meetings;
  let best, _ =
    Hashtbl.fold
      (fun h n (bh, bn) -> if n > bn || (n = bn && h < bh) then (h, n) else (bh, bn))
      counts (0, -1)
  in
  best * hour_ns

let campus_dataset = lazy (Trace.Dataset.generate (Rng.create 7) ~days:5 ~meetings:5000 ())

type churn = Start of Trace.Dataset.meeting | Leave of int list

type campus_stats = {
  mutable m2e_counts : (float * int) list list;  (** per collector: cumulative buckets *)
  mutable frozen_ms : float;
  mutable watched_ms : float;
  mutable peak_live : int;
}

let campus_stats = { m2e_counts = []; frozen_ms = 0.0; watched_ms = 0.0; peak_live = 0 }

(* campus_live: open loop in virtual time. Meetings of the busiest
   weekday hour arrive at their trace times compressed 120x, whatever
   the simulation's progress; an op advances the live campus by one
   virtual millisecond. *)
let campus_live =
  let setup ~seed ~round ~collect =
    let s = sub_seed seed round in
    let w = make_world ~seed:s ~switches:1 () in
    (* Every round replays the same hour — the campus dataset's seed is
       fixed, as in the replay experiment — and the seed drives the
       clients and links: which meetings an hour holds moves the load per
       virtual millisecond by a third, which would swamp every comparison
       across seeds. *)
    let ds = Lazy.force campus_dataset in
    let hour = busiest_hour ds in
    let compression = hour_ns / Engine.sec (float_of_int campus_window_s) in
    (* pending churn, ordered by (time, sequence) *)
    let queue = ref [] and seq = ref 0 in
    let push time c =
      incr seq;
      let key = (time, !seq) in
      let rec ins = function
        | [] -> [ (key, c) ]
        | ((k, _) as x) :: rest when compare k key <= 0 -> x :: ins rest
        | l -> (key, c) :: l
      in
      queue := ins !queue
    in
    Array.iter
      (fun (m : Trace.Dataset.meeting) ->
        if m.start_ns >= hour && m.start_ns < hour + hour_ns && m.size <= campus_max_size then
          push ((m.start_ns - hour) / compression) (Start m))
      ds.Trace.Dataset.meetings;
    let live = ref 0 and ctrl_ops = ref 0 in
    let receivers = ref [] in
    let run_churn = function
      | Start m ->
          (* seats are reserved before the first blocking join, so no
             nested arrival can overshoot the cap *)
          if !live + m.size <= size.campus_cap then begin
            live := !live + m.size;
            campus_stats.peak_live <- max campus_stats.peak_live !live;
            let mid = Controller.create_meeting w.ctl in
            let members =
              List.init m.size (fun _ ->
                  let c =
                    add_client w ~config:(fun ~ip -> Client.default_config ~ip) ~hosted:true
                      ~link:access_link
                  in
                  incr ctrl_ops;
                  (Controller.join w.ctl mid c ~send_media:true, c))
            in
            List.iter
              (fun (_, c) ->
                receivers :=
                  List.filter_map Client.receiver (Client.connections c) @ !receivers)
              members;
            let dur = max (Engine.sec 4.0) (m.duration_ns / compression) in
            push (Engine.now w.engine + dur) (Leave (List.map fst members))
          end
      | Leave pids ->
          List.iter
            (fun pid ->
              incr ctrl_ops;
              Controller.leave w.ctl pid;
              decr live)
            pids
    in
    let slice_end = ref 0 in
    let prepare () = !slice_end + Engine.ms 1 <= size.campus_round_ns in
    let op (drain : drain) =
      slice_end := !slice_end + Engine.ms 1;
      let rec due () =
        match !queue with
        | ((time, _), c) :: rest when time <= !slice_end ->
            queue := rest;
            drain ~until:time w.engine;
            Probe.ctrl_begin ();
            run_churn c;
            Probe.ctrl_end ();
            due ()
        | _ -> ()
      in
      due ();
      drain ~until:!slice_end w.engine
    in
    while !slice_end < size.campus_warmup_ns do
      op (fun ?until e -> Engine.run ?until e)
    done;
    let finish () =
      let clean =
        match Scallop_analysis.assert_clean ~what:"campus_live" w.ctl with
        | () -> true
        | exception Failure msg ->
            prerr_endline msg;
            false
      in
      let decoded, incomplete, undecodable =
        List.fold_left
          (fun (d, i, u) rx ->
            ( d + Codec.Video_receiver.frames_decoded rx,
              i + Codec.Video_receiver.frames_incomplete rx,
              u + Codec.Video_receiver.frames_undecodable rx ))
          (0, 0, 0) !receivers
      in
      if collect then begin
        let now = Engine.now w.engine in
        List.iter
          (fun q ->
            let k = Scallop_obs.Qoe.key_of q in
            if k.Scallop_obs.Qoe.k_kind = Scallop_obs.Qoe.Video then begin
              let s = Scallop_obs.Qoe.summary q ~now_ns:now in
              campus_stats.frozen_ms <- campus_stats.frozen_ms +. s.Scallop_obs.Qoe.s_frozen_ms;
              let first = Scallop_obs.Qoe.first_ns q in
              if first >= 0 then
                campus_stats.watched_ms <-
                  campus_stats.watched_ms +. (float_of_int (now - first) /. 1e6)
            end;
            let buckets = ref [] in
            Scallop_util.Stats.Histogram.iter_buckets (Scallop_obs.Qoe.m2e_histogram q)
              (fun ~le ~count -> buckets := (le, count) :: !buckets);
            campus_stats.m2e_counts <- List.rev !buckets :: campus_stats.m2e_counts)
          (Scallop_obs.Qoe.all ())
      end;
      {
        attempted = decoded + incomplete + undecodable;
        failed = undecodable;
        checks =
          [
            ("verifier clean", clean);
            ("live participants never exceed the cap", campus_stats.peak_live <= size.campus_cap);
          ];
        frames_decoded = decoded;
        frames_total = decoded + incomplete + undecodable;
      }
    in
    {
      prepare;
      op;
      finish;
      world = w;
      ctrl_ops = (fun () -> !ctrl_ops);
      suppressed = (fun () -> Dataplane.replicas_suppressed w.dps.(0));
      egress = (fun () -> Dataplane.egress_pkts w.dps.(0));
    }
  in
  let extras () =
    (* merged mouth-to-ear histogram: cumulative counts summed per bound *)
    let merged = Hashtbl.create 64 in
    List.iter
      (List.iter (fun (le, c) ->
           Hashtbl.replace merged le (c + Option.value (Hashtbl.find_opt merged le) ~default:0)))
      campus_stats.m2e_counts;
    let bounds = Hashtbl.fold (fun le c acc -> (le, c) :: acc) merged [] |> List.sort compare in
    let total = List.fold_left (fun acc (_, c) -> max acc c) 0 bounds in
    let p99 =
      match List.find_opt (fun (_, c) -> float_of_int c >= 0.99 *. float_of_int total) bounds with
      | Some (le, _) when Float.is_finite le -> le
      | _ -> 0.0
    in
    [
      Report.metric "m2e_p99_ms" "ms" p99;
      Report.metric "freeze_ratio" "ratio"
        (if campus_stats.watched_ms > 0.0 then campus_stats.frozen_ms /. campus_stats.watched_ms
         else 0.0);
      Report.metric "peak_live" "count" (float_of_int campus_stats.peak_live);
    ]
  in
  {
    name = "campus_live";
    op_unit = "virtual ms";
    sample_every = 1;
    ctrl = false;
    start_layer = Probe.Eventq;
    needs_ingress = false;
    setup;
    extras;
    final_check = (fun ~seed:_ -> []);
  }

(* --- ctrl_churn ------------------------------------------------------------------- *)

type ev =
  | Join of { meeting : int; slot : int }
  | Leave_ev of { meeting : int; slot : int }
  | Migrate of { meeting : int; slot : int; home : int }
  | Share_start of { meeting : int; slot : int }
  | Share_stop of { meeting : int; slot : int }

let churn_size = 12

(* The campus churn schedule: meetings of at least 12 participants (12
   join), a screen-share episode, one cross-switch migrate and the
   leaves, interleaved across meetings by trace time. *)
let churn_schedule ~seed =
  let ds = Trace.Dataset.generate (Rng.create (seed + 7)) ~days:5 ~meetings:400 () in
  let picked =
    Array.to_list ds.Trace.Dataset.meetings
    |> List.filter (fun (m : Trace.Dataset.meeting) -> m.size >= churn_size)
    |> List.sort (fun (a : Trace.Dataset.meeting) b -> compare a.start_ns b.start_ns)
    |> List.filteri (fun i _ -> i < size.churn_meetings)
  in
  let events = ref [] in
  let add ts ev = events := (ts, ev) :: !events in
  List.iteri
    (fun mi (m : Trace.Dataset.meeting) ->
      let at frac = m.start_ns + int_of_float (frac *. float_of_int m.duration_ns) in
      let k = churn_size in
      for j = 0 to k - 1 do
        add (at (0.4 *. float_of_int j /. float_of_int k)) (Join { meeting = mi; slot = j })
      done;
      add (at 0.45) (Share_start { meeting = mi; slot = 0 });
      add (at 0.55) (Share_stop { meeting = mi; slot = 0 });
      add (at 0.6) (Migrate { meeting = mi; slot = 1; home = (mi + 1) mod 2 });
      for j = 0 to k - 1 do
        add (at (0.7 +. (0.3 *. float_of_int j /. float_of_int k))) (Leave_ev { meeting = mi; slot = j })
      done)
    picked;
  List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !events) |> List.map snd

let kind_name = function
  | Join _ -> "join"
  | Leave_ev _ -> "leave"
  | Migrate _ -> "migrate"
  | Share_start _ | Share_stop _ -> "share"

type churn_stats = {
  virt_ms : Scallop_util.Stats.Samples.t;
  by_kind : (string, Scallop_util.Stats.Samples.t) Hashtbl.t;  (** wall µs *)
  mutable virt_total_ns : int;
  mutable ops : int;
}

let churn_stats =
  { virt_ms = Scallop_util.Stats.Samples.create (); by_kind = Hashtbl.create 4; virt_total_ns = 0; ops = 0 }

(* ctrl_churn: closed loop, one caller issuing the next operation when
   the previous one returns, over a control channel with 30% loss each
   way and a 20 ms round trip; two switches, media-quiet clients. *)
let ctrl_churn =
  let control =
    let base = Scallop.Rpc_transport.degraded ~loss:0.3 ~rtt_ns:(Engine.ms 20) () in
    { base with Scallop.Rpc_transport.max_retries = 24 }
  in
  let setup ~seed ~round ~collect =
    let s = sub_seed seed round in
    let w = make_world ~seed:s ~switches:2 ~control () in
    let events = ref (churn_schedule ~seed:s) in
    let clients = Hashtbl.create 64 and pids = Hashtbl.create 64 and mids = Hashtbl.create 16 in
    let mid_of mi =
      match Hashtbl.find_opt mids mi with
      | Some mid -> mid
      | None ->
          let mid = Controller.create_meeting w.ctl in
          Hashtbl.replace mids mi mid;
          mid
    in
    let client_of key =
      match Hashtbl.find_opt clients key with
      | Some c -> c
      | None ->
          let c = add_client w ~config:quiet ~hosted:true ~link:access_link in
          Hashtbl.replace clients key c;
          c
    in
    let ops = ref 0 and failed = ref 0 in
    let current = ref None in
    let rec prepare () =
      match !events with
      | [] -> false
      | ev :: rest -> (
          events := rest;
          (* an op on a participant that is not in the meeting is skipped *)
          match ev with
          | Join _ ->
              current := Some ev;
              true
          | Leave_ev { meeting; slot }
          | Migrate { meeting; slot; _ }
          | Share_start { meeting; slot }
          | Share_stop { meeting; slot } ->
              if Hashtbl.mem pids (meeting, slot) then begin
                current := Some ev;
                true
              end
              else prepare ())
    in
    let exec ev =
      match ev with
      | Join { meeting; slot } ->
          let pid =
            Controller.join w.ctl (mid_of meeting) (client_of (meeting, slot)) ~send_media:true
          in
          Hashtbl.replace pids (meeting, slot) pid
      | Leave_ev { meeting; slot } ->
          Controller.leave w.ctl (Hashtbl.find pids (meeting, slot));
          Hashtbl.remove pids (meeting, slot)
      | Migrate { meeting; slot; home } ->
          Controller.leave w.ctl (Hashtbl.find pids (meeting, slot));
          let pid =
            Controller.join ~home w.ctl (mid_of meeting) (client_of (meeting, slot))
              ~send_media:true
          in
          Hashtbl.replace pids (meeting, slot) pid
      | Share_start { meeting; slot } ->
          Controller.start_screen_share w.ctl (Hashtbl.find pids (meeting, slot))
      | Share_stop { meeting; slot } ->
          Controller.stop_screen_share w.ctl (Hashtbl.find pids (meeting, slot))
    in
    let v_start = Engine.now w.engine in
    let op (_ : drain) =
      let ev = Option.get !current in
      incr ops;
      let v0 = Engine.now w.engine in
      let t0 = Probe.now_ns () in
      (match exec ev with () -> () | exception e ->
         incr failed;
         prerr_endline ("ctrl_churn: " ^ Printexc.to_string e));
      let t1 = Probe.now_ns () in
      if collect then begin
        Scallop_util.Stats.Samples.observe churn_stats.virt_ms
          (float_of_int (Engine.now w.engine - v0) /. 1e6);
        let k = kind_name ev in
        let s =
          match Hashtbl.find_opt churn_stats.by_kind k with
          | Some s -> s
          | None ->
              let s = Scallop_util.Stats.Samples.create () in
              Hashtbl.replace churn_stats.by_kind k s;
              s
        in
        Scallop_util.Stats.Samples.observe s (float_of_int (t1 - t0) /. 1e3)
      end
    in
    let finish () =
      let clean =
        match Scallop_analysis.assert_clean ~what:"ctrl_churn" w.ctl with
        | () -> true
        | exception Failure msg ->
            prerr_endline msg;
            false
      in
      if collect then begin
        churn_stats.virt_total_ns <- churn_stats.virt_total_ns + (Engine.now w.engine - v_start);
        churn_stats.ops <- churn_stats.ops + !ops
      end;
      {
        attempted = !ops;
        failed = !failed;
        checks = [ ("no controller op failed", !failed = 0); ("verifier clean", clean) ];
        frames_decoded = 0;
        frames_total = 0;
      }
    in
    {
      prepare;
      op;
      finish;
      world = w;
      ctrl_ops = (fun () -> !ops);
      suppressed = (fun () -> dp_counter Dataplane.replicas_suppressed w);
      egress = (fun () -> dp_counter Dataplane.egress_pkts w);
    }
  in
  let extras () =
    let p50 s = Scallop_util.Stats.Samples.percentile s 50.0 in
    let virt_s = float_of_int churn_stats.virt_total_ns /. 1e9 in
    [
      Report.metric "ctrl_virt_ops_per_s" "1/s"
        (if virt_s > 0.0 then float_of_int churn_stats.ops /. virt_s else 0.0);
      Report.metric "ctrl_virt_p99_ms" "ms"
        (if Scallop_util.Stats.Samples.count churn_stats.virt_ms > 0 then
           Scallop_util.Stats.Samples.percentile churn_stats.virt_ms 99.0
         else 0.0);
    ]
    @ (Hashtbl.fold (fun k s acc -> (k, s) :: acc) churn_stats.by_kind []
      |> List.sort compare
      |> List.map (fun (k, s) -> Report.metric (Printf.sprintf "controller.%s.us_p50" k) "us" (p50 s)))
  in
  {
    name = "ctrl_churn";
    op_unit = "controller op";
    sample_every = 1;
    ctrl = true;
    start_layer = Probe.Controller;
    needs_ingress = false;
    setup;
    extras;
    final_check = (fun ~seed:_ -> []);
  }

let all = [ fanout_bare; fanout_hosted; campus_live; ctrl_churn ]
let find name = List.find_opt (fun w -> w.name = name) all

(* --- layer microtimings after the run ----------------------------------------- *)

(* Repeat [f] over [n] items until at least 20 ms have passed; ns per item. *)
let time_per_item n f =
  if n = 0 then 0.0
  else begin
    let t0 = Probe.now_ns () in
    let reps = ref 0 in
    while Probe.now_ns () - t0 < 20_000_000 do
      f ();
      incr reps
    done;
    float_of_int (Probe.now_ns () - t0) /. float_of_int (!reps * n)
  end

(* [Rpc.decode] plus [Rpc.encode] over the captured control datagrams. *)
let rpc_codec_ns () =
  let msgs = Array.of_list !captured in
  time_per_item (Array.length msgs) (fun () ->
      Array.iter (fun b -> ignore (Scallop.Rpc.encode (Scallop.Rpc.decode b))) msgs)

(* [Journal.append] of the last world's own entries into a fresh journal. *)
let journal_append_ns w =
  match Controller.journal w.ctl with
  | None -> 0.0
  | Some j ->
      let ops = List.map (fun e -> e.Scallop.Journal.e_op) (Scallop.Journal.entries_after j (-1)) in
      time_per_item (List.length ops) (fun () ->
          let fresh : Controller.persisted Scallop.Journal.t = Scallop.Journal.create () in
          let fence = Scallop.Journal.acquire_fence fresh in
          List.iter (fun op -> ignore (Scallop.Journal.append fresh ~fence op)) ops)
