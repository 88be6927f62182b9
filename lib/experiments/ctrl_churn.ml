(* Control-plane churn macro-benchmark: replay the diurnal campus trace's
   join/leave/migrate/share sequence with the inter-event gaps removed, so
   the control plane itself is the bottleneck (the trace's session churn
   compressed 100-1000x onto the controller). The same deterministic event
   schedule runs twice — flushing the controller's batch buffer after
   every op ([Common.make_scallop ~batch:false], one RPC per wire op) vs at
   each operation boundary (the default) — over a degraded control
   channel, and the ratio of virtual-time operation throughput is the
   batching speedup its claim checks. *)

module Rng = Scallop_util.Rng
module Engine = Netsim.Engine
module Stats = Scallop_util.Stats
module Table = Scallop_util.Table

(* One session-level operation against the controller. [slot] identifies
   a participant within its meeting; [home] is a switch index. A migrate
   is a leave immediately followed by a join homed on another switch —
   the controller rebuilds the member's legs (and any cascade relays)
   there. *)
type ev =
  | Join of { meeting : int; slot : int }  (** homed on the meeting's primary *)
  | Leave of { meeting : int; slot : int }
  | Migrate of { meeting : int; slot : int; home : int }
  | Share_start of { meeting : int; slot : int }
  | Share_stop of { meeting : int; slot : int }

(* Derive a schedule from the campus dataset: meetings large enough to
   have real fan-out (the two-party majority exercises almost no
   control-plane work per op), joins spread over the first half of the
   meeting, a mid-life migrate and a screen-share episode, then leaves.
   Events are tagged with their trace timestamp, interleaved across
   concurrent meetings by sorting, and then replayed back-to-back. *)
let schedule ~seed ~meetings ~min_size ~max_size =
  let rng = Rng.create (seed + 7) in
  let ds = Trace.Dataset.generate rng ~meetings:(meetings * 20) () in
  let picked =
    Array.to_list ds.Trace.Dataset.meetings
    |> List.filter (fun m -> m.Trace.Dataset.size >= min_size)
    |> List.sort (fun a b -> compare a.Trace.Dataset.start_ns b.Trace.Dataset.start_ns)
    |> List.filteri (fun i _ -> i < meetings)
  in
  let events = ref [] in
  let add ts ev = events := (ts, ev) :: !events in
  List.iteri
    (fun mi m ->
      let k = min max_size m.Trace.Dataset.size in
      let t0 = m.Trace.Dataset.start_ns in
      let dur = m.Trace.Dataset.duration_ns in
      let at frac = t0 + int_of_float (frac *. float_of_int dur) in
      for j = 0 to k - 1 do
        add (at (0.4 *. float_of_int j /. float_of_int k)) (Join { meeting = mi; slot = j })
      done;
      add (at 0.45) (Share_start { meeting = mi; slot = 0 });
      add (at 0.55) (Share_stop { meeting = mi; slot = 0 });
      (* one member hops to the other switch mid-meeting: the relay
         machinery (Appendix A) is the heaviest per-op sequence there is *)
      if k >= 3 then
        add (at 0.6) (Migrate { meeting = mi; slot = 1; home = (mi + 1) mod 2 });
      for j = 0 to k - 1 do
        add (at (0.7 +. (0.3 *. float_of_int j /. float_of_int k)))
          (Leave { meeting = mi; slot = j })
      done)
    picked;
  List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !events)
  |> List.map snd

type side = {
  ops : int;
  elapsed_s : float;  (** virtual seconds the replay occupied *)
  ops_per_sec : float;
  mean_ms : float;
  p50_ms : float;
  p99_ms : float;
  wire_requests : int;
  retries : int;
  failures : int;
  batches : int;
  batched_ops : int;
}

type result = {
  events : int;
  loss : float;
  rtt_ms : int;
  per_op : side;
  batched : side;
  speedup : float;  (** batched ops/sec over per-op ops/sec *)
}

(* The bench measures control-plane work only, so clients are media-quiet:
   no RTP and no periodic feedback/STUN timers (virtual time advances only
   inside blocking RPCs, but every live timer still costs real events on
   each engine pump — at a few hundred participants that dwarfs the RPCs
   being measured). The controller's registration path is identical either
   way. *)
let quiet_config ~ip =
  let c = Webrtc.Client.default_config ~ip in
  let never = Engine.sec 1e7 in
  {
    c with
    Webrtc.Client.send_video = false;
    send_audio = false;
    sr_interval_ns = never;
    remb_poll_interval_ns = never;
    nack_poll_interval_ns = never;
    stun_interval_ns = never;
    rr_interval_ns = never;
  }

let replay ~seed ~control ~batch events =
  (* two switches: cross-switch homes force cascade relays, which is
     where per-op control traffic is heaviest *)
  let stack = Common.make_scallop ~seed ~switches:2 ~control ~batch () in
  let engine = stack.Common.engine and controller = stack.Common.controller in
  let clients = Hashtbl.create 64 in
  let pids = Hashtbl.create 64 in
  let mids = Hashtbl.create 16 in
  let next_client = ref 0 in
  let mid_of mi =
    match Hashtbl.find_opt mids mi with
    | Some mid -> mid
    | None ->
        let mid = Scallop.Controller.create_meeting controller in
        Hashtbl.replace mids mi mid;
        mid
  in
  let client_of key =
    match Hashtbl.find_opt clients key with
    | Some c -> c
    | None ->
        let c =
          Common.add_client engine stack.Common.network stack.Common.rng ~index:!next_client
            ~config:quiet_config ()
        in
        incr next_client;
        Hashtbl.replace clients key c;
        c
  in
  let latencies = ref [] in
  let ops = ref 0 in
  let t_start = Engine.now engine in
  let timed f =
    let t0 = Engine.now engine in
    f ();
    incr ops;
    latencies := float_of_int (Engine.now engine - t0) /. 1e6 :: !latencies
  in
  List.iter
    (fun ev ->
      match ev with
      | Join { meeting; slot } ->
          timed (fun () ->
              let pid =
                Scallop.Controller.join controller (mid_of meeting)
                  (client_of (meeting, slot))
                  ~send_media:true
              in
              Hashtbl.replace pids (meeting, slot) pid)
      | Leave { meeting; slot } ->
          Hashtbl.find_opt pids (meeting, slot)
          |> Option.iter (fun pid ->
                 timed (fun () ->
                     Scallop.Controller.leave controller pid;
                     Hashtbl.remove pids (meeting, slot)))
      | Migrate { meeting; slot; home } ->
          Hashtbl.find_opt pids (meeting, slot)
          |> Option.iter (fun pid ->
                 timed (fun () ->
                     Scallop.Controller.leave controller pid;
                     let pid' =
                       Scallop.Controller.join ~home controller (mid_of meeting)
                         (client_of (meeting, slot))
                         ~send_media:true
                     in
                     Hashtbl.replace pids (meeting, slot) pid'))
      | Share_start { meeting; slot } ->
          Hashtbl.find_opt pids (meeting, slot)
          |> Option.iter (fun pid ->
                 timed (fun () -> Scallop.Controller.start_screen_share controller pid))
      | Share_stop { meeting; slot } ->
          Hashtbl.find_opt pids (meeting, slot)
          |> Option.iter (fun pid ->
                 timed (fun () -> Scallop.Controller.stop_screen_share controller pid)))
    events;
  let elapsed_s = float_of_int (Engine.now engine - t_start) /. 1e9 in
  let lat = Array.of_list !latencies in
  Array.sort compare lat;
  let rpc = Common.rpc_sum stack in
  {
    ops = !ops;
    elapsed_s;
    ops_per_sec = (if elapsed_s > 0.0 then float_of_int !ops /. elapsed_s else 0.0);
    mean_ms =
      (if lat = [||] then 0.0
       else Array.fold_left ( +. ) 0.0 lat /. float_of_int (Array.length lat));
    p50_ms = (if lat = [||] then 0.0 else Stats.percentile_of_array lat 50.0);
    p99_ms = (if lat = [||] then 0.0 else Stats.percentile_of_array lat 99.0);
    wire_requests = rpc "wire_requests";
    retries = rpc "retries";
    failures = rpc "failures";
    batches = rpc "batch_flushes";
    batched_ops = rpc "batched_ops";
  }

(* The batching gate runs this at 30% control loss. [max_retries] is raised so
   no operation fails outright at that loss rate (p_give_up ~ 0.5^17 per
   call); the fixed seed keeps both sides deterministic. *)
let compute ?(loss = 0.3) ?(rtt_ms = 20) () =
  let events = schedule ~seed:4242 ~meetings:10 ~min_size:12 ~max_size:12 in
  let control =
    let base = Scallop.Rpc_transport.degraded ~loss ~rtt_ns:(Engine.ms rtt_ms) () in
    { base with Scallop.Rpc_transport.max_retries = 16 }
  in
  let per_op = replay ~seed:4242 ~control ~batch:false events in
  let batched = replay ~seed:4242 ~control ~batch:true events in
  {
    events = List.length events;
    loss;
    rtt_ms;
    per_op;
    batched;
    speedup =
      (if per_op.ops_per_sec > 0.0 then batched.ops_per_sec /. per_op.ops_per_sec
       else 0.0);
  }

let claims =
  [
    Claim.float "§5.1" "batched/per-op ops/s" ~paper:"none, a batching gate"
      ~decimals:1 ~ge:5.0 (fun r -> r.speedup);
  ]

let print r =
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Control-plane churn: per-op vs batched (%d events, %.0f%% loss, %d ms RTT)"
           r.events (100.0 *. r.loss) r.rtt_ms)
      ~columns:
        [ "mode"; "ops"; "virt s"; "ops/s"; "mean ms"; "p50 ms"; "p99 ms";
          "wire reqs"; "retries"; "fail"; "batches"; "batched ops" ]
  in
  let row name (s : side) =
    Table.add_row table
      [ name; Table.cell_i s.ops; Table.cell_f ~decimals:1 s.elapsed_s;
        Table.cell_f ~decimals:2 s.ops_per_sec; Table.cell_f ~decimals:0 s.mean_ms;
        Table.cell_f ~decimals:0 s.p50_ms; Table.cell_f ~decimals:0 s.p99_ms;
        Table.cell_i s.wire_requests; Table.cell_i s.retries; Table.cell_i s.failures;
        Table.cell_i s.batches; Table.cell_i s.batched_ops ]
  in
  row "per-op" r.per_op;
  row "batched" r.batched;
  Table.print table;
  print_endline
    "A k-member join costs O(k) serial round trips per-op but one Rpc.Batch per touched\n\
     switch batched, so the gap widens with fan-out and with loss (each eliminated RPC\n\
     also eliminates its retry ladder)."
