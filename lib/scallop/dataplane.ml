module Addr = Scallop_util.Addr
module Metrics = Scallop_obs.Metrics
module Trace = Scallop_obs.Trace
module Engine = Netsim.Engine
module Network = Netsim.Network
module Dgram = Netsim.Dgram
module Packet = Rtp.Packet
module Dd = Av1.Dd
module Bufpool = Scallop_util.Bufpool

let stream_index_capacity = 65_536

(* Steady-state fast-path allocation ceiling, in bytes of minor-heap
   allocation per ingress packet for the canonical 30-receiver fan-out
   (replica buffers pooled, batches recycled). The bench gate and the
   regression test both pin against this one constant. The replica path
   itself allocates only the egress [Dgram.t]; the rest is the network's
   per-datagram delivery work, ~16 words per replica in all (measured
   ~3.8 KB for 30 receivers). Payload copies are out of the picture, so
   reintroducing a per-replica [Bytes.copy] (~1.2 KB each) blows this
   ceiling immediately. *)
let alloc_budget_bytes_per_packet = 8_192

(* Match-action table sizes of the programmed pipeline (§6.2): exceeding
   one is the same hard failure a real switch would report at insert. *)
let uplink_table_capacity = 4_096
let egress_table_capacity = 65_536
let feedback_table_capacity = 65_536

let table_insert tbl k v =
  match Tofino.Table.insert tbl k v with
  | Ok () -> ()
  | Error `Table_full ->
      failwith (Printf.sprintf "Dataplane: %s table full" (Tofino.Table.name tbl))

type counters = {
  mutable rtp_audio_pkts : int;
  mutable rtp_audio_bytes : int;
  mutable rtp_video_pkts : int;
  mutable rtp_video_bytes : int;
  mutable rtp_av1_ds_pkts : int;
  mutable rtp_av1_ds_bytes : int;
  mutable rtcp_sr_sdes_pkts : int;
  mutable rtcp_sr_sdes_bytes : int;
  mutable rtcp_rr_pkts : int;
  mutable rtcp_rr_bytes : int;
  mutable rtcp_remb_pkts : int;
  mutable rtcp_remb_bytes : int;
  mutable stun_pkts : int;
  mutable stun_bytes : int;
  mutable other_pkts : int;
  mutable other_bytes : int;
}

let fresh_counters () =
  {
    rtp_audio_pkts = 0;
    rtp_audio_bytes = 0;
    rtp_video_pkts = 0;
    rtp_video_bytes = 0;
    rtp_av1_ds_pkts = 0;
    rtp_av1_ds_bytes = 0;
    rtcp_sr_sdes_pkts = 0;
    rtcp_sr_sdes_bytes = 0;
    rtcp_rr_pkts = 0;
    rtcp_rr_bytes = 0;
    rtcp_remb_pkts = 0;
    rtcp_remb_bytes = 0;
    stun_pkts = 0;
    stun_bytes = 0;
    other_pkts = 0;
    other_bytes = 0;
  }

type mode = Fast | Slow | Paranoid

exception Differential_mismatch of string

type uplink = {
  sender : int;
  meeting : Trees.handle;
  video_ssrc : int;
  audio_ssrc : int;
  renditions : int array;  (** simulcast SSRCs; [||] for plain SVC uplinks *)
  mutable feedback_dst : Addr.t option;
}

type uplink_slot = { mutable entry : uplink }

type leg = {
  leg_receiver : int;
  leg_video_ssrc : int;
  dst : Addr.t;
  src_port : int;
  src : Addr.t;  (** the switch's [ip:src_port], built once at registration *)
  uplink_port : int;
  mutable target : Dd.decode_target;
  mutable forward_remb : bool;
  rewriter : Seq_rewrite.t option;
  simulcast : Simulcast.t option;
  stream_index : int;  (** -1 when not rate-adapted *)
}

(* The egress table's miss, compared by [==]: the per-replica lookup
   returns it instead of consing an option. *)
let nil_leg =
  let nowhere = Addr.v 0 0 in
  {
    leg_receiver = -1;
    leg_video_ssrc = -1;
    dst = nowhere;
    src_port = 0;
    src = nowhere;
    uplink_port = 0;
    target = Dd.DT_30fps;
    forward_remb = false;
    rewriter = None;
    simulcast = None;
    stream_index = -1;
  }

(* Egress-table key: the receiver above the 32-bit SSRC, as the 8-byte
   hardware key packs them — an immediate int, so the per-replica lookup
   conses no tuple. *)
let leg_key ~receiver ~ssrc = (receiver lsl 32) lor ssrc

(* What the pipeline does to one forwarded replica's header. Suppression
   is not a rewrite, so a suppressed replica has nothing to materialize. *)
type rewrite =
  | Verbatim  (** audio / descriptor-less video: bytes unchanged *)
  | Patch_seq  (** patch the sequence number *)
  | Patch_splice  (** simulcast splice: patch SSRC, sequence and AV1 frame number *)

(* One ingress media packet, as both paths see it. The decision phase
   (simulcast splice, layer suppression, sequence rewrite — all stateful)
   runs exactly once per replica on the scalar fields below; only the
   materialization of the egress bytes differs between paths, so the
   paranoid mode can run both without double-advancing rewriter state.
   A single instance lives in [t] and is overwritten per ingress packet
   (and its decision fields per replica): the fan-out completes before
   the handler returns, so one scratch record suffices and neither the
   packet context nor a replica's rewrite allocates. *)
type media_ctx = {
  mutable c_ssrc : int;
  mutable c_seq : int;
  mutable c_fields : Dd.fields option;
  mutable c_view : Packet.View.t option;
      (** [Some] iff fast materialization is sound *)
  mutable c_payload : bytes;  (** ingress wire bytes, for the record parse *)
  mutable c_is_video : bool;
  mutable c_parsed : (Packet.t * Dd.t option) option;
      (** memoized record parse, forced only for non-canonical ingress or
          paranoid checking (and eager in [Slow] mode) *)
  mutable c_trace : int;  (** causal trace id; -1 = untraced *)
  (* the current replica's egress decision, rewritten by [decide] for
     each replica and read by both materializers *)
  mutable c_rw : rewrite;
  mutable c_out_ssrc : int;  (** egress SSRC (a splice changes it) *)
  mutable c_out_seq : int;  (** egress sequence number ([Patch_*]) *)
  mutable c_out_frame : int;  (** egress AV1 frame number ([Patch_splice]) *)
  mutable c_template : int;  (** descriptor template id; -1 = none *)
}

let fresh_scratch () =
  {
    c_ssrc = 0;
    c_seq = 0;
    c_fields = None;
    c_view = None;
    c_payload = Bytes.empty;
    c_is_video = false;
    c_parsed = None;
    c_trace = -1;
    c_rw = Verbatim;
    c_out_ssrc = 0;
    c_out_seq = 0;
    c_out_frame = 0;
    c_template = -1;
  }

(* Every replica of one ingress packet leaves the pipeline at the same
   departure instant, so replicas are staged into a [batch] and sent by a
   single scheduled flush — one event-queue operation per ingress packet
   instead of one per replica. Batches recycle through an intrusive free
   list and carry a preallocated fire closure, so steady-state staging
   allocates nothing (the slots array only grows past new fan-out
   high-water marks). *)
type batch = {
  mutable slots : Dgram.t array;
  mutable b_n : int;
  mutable fire : unit -> unit;
      (** sends slots [0..b_n-1] in staging order, then recycles the batch *)
  mutable b_link : batch;  (** free-list thread, [nil_batch]-terminated *)
}

let rec nil_batch = { slots = [||]; b_n = 0; fire = (fun () -> ()); b_link = nil_batch }
let dummy_dgram = Dgram.v ~src:(Addr.v 0 0) ~dst:(Addr.v 0 0) Bytes.empty

type t = {
  engine : Engine.t;
  network : Network.t;
  ip : int;
  obs_label : string;
  pre : Tofino.Pre.t;
  trees : Trees.t;
  pipeline_latency_ns : int;
  header_auth : bool;
  mutable headers_authenticated : int;
  uplinks : (int, uplink_slot) Tofino.Table.t;  (** dst port -> uplink *)
  legs : (int, leg) Tofino.Table.t;  (** [leg_key ~receiver ~ssrc] -> leg *)
  leg_by_port : (int, leg) Tofino.Table.t;  (** src_port -> leg (feedback match) *)
  mutable free_stream_indices : int list;
  mutable next_stream_index : int;
  (* the six Stream Tracker register arrays of §6.3, kept for resource
     accounting; the rewriter objects hold the live state *)
  trackers : Tofino.Register.t array;
  mutable cpu_sink : Dgram.t -> unit;
  ingress : counters;
  mutable cpu_pkts : int;
  mutable cpu_bytes : int;
  mutable egress_pkts : int;
  mutable egress_bytes : int;
  mutable replicas_suppressed : int;
  mutable mode : mode;
  (* registry-backed fast-path counters (O(1) field increments) *)
  fast_pkts : Metrics.counter;
  slow_pkts : Metrics.counter;
  replica_copies : Metrics.counter;
  paranoid_checks : Metrics.counter;
  paranoid_mismatches : Metrics.counter;
  mutable egress_hook : receiver:int -> ssrc:int -> template:int -> size:int -> unit;
  (* allocation-free fast-path scaffolding *)
  pool : Bufpool.t;  (** replica buffer pool; debug (poison) iff Paranoid *)
  pool_some : Bufpool.t option;
      (** preallocated [Some pool] — emitting a pooled replica must not
          cons a fresh option per datagram *)
  mutable free_batches : batch;
  scratch : media_ctx;
}

(* Ingress-to-egress pipeline traversal, and the trip to the switch CPU
   over its PCIe port. *)
let base_pipeline_latency_ns = 600
let cpu_port_latency_ns = 50_000

(* Recomputing a short-header HMAC (SipHash-style over ~20 bytes) costs a
   couple of extra stages' worth of latency on the Tofino. *)
let hmac_latency_ns = 150

let create engine network ~ip ?(header_auth = false) ?(mode = Fast) ?(obs_label = "sw0")
    () =
  let pre = Tofino.Pre.create ~obs_label () in
  let labels = [ ("switch", obs_label) ] in
  (* Paranoid doubles as the pool's debug mode: released buffers are
     poisoned, so any reader still aliasing a recycled replica fails the
     byte-differential loudly instead of forwarding stale bytes. *)
  let pool = Bufpool.create ~debug:(mode = Paranoid) () in
  let pipeline_latency_ns =
    base_pipeline_latency_ns + if header_auth then hmac_latency_ns else 0
  in
  let t =
    {
      engine;
      network;
      ip;
      obs_label;
      pre;
      trees = Trees.create pre;
      pipeline_latency_ns;
      header_auth;
      headers_authenticated = 0;
      uplinks = Tofino.Table.create ~name:"uplink" ~capacity:uplink_table_capacity;
      legs = Tofino.Table.create ~name:"egress_leg" ~capacity:egress_table_capacity;
      leg_by_port = Tofino.Table.create ~name:"feedback" ~capacity:feedback_table_capacity;
      free_stream_indices = [];
      next_stream_index = 0;
      trackers =
        Array.init 6 (fun i ->
            Tofino.Register.create
              ~name:(Printf.sprintf "stream_tracker_%d" i)
              ~cells:stream_index_capacity);
      cpu_sink = (fun _ -> ());
      ingress = fresh_counters ();
      cpu_pkts = 0;
      cpu_bytes = 0;
      egress_pkts = 0;
      egress_bytes = 0;
      replicas_suppressed = 0;
      mode;
      fast_pkts =
        Metrics.counter ~labels ~help:"ingress media packets forwarded via copy-and-patch"
          "scallop_dp_fast_pkts";
      slow_pkts =
        Metrics.counter ~labels ~help:"ingress media packets that took the record path"
          "scallop_dp_slow_pkts";
      replica_copies =
        Metrics.counter ~labels ~help:"fast-path fan-out replica buffer copies"
          "scallop_dp_replica_copies";
      paranoid_checks =
        Metrics.counter ~labels ~help:"egress datagrams byte-compared across both paths"
          "scallop_dp_paranoid_checks";
      paranoid_mismatches =
        Metrics.counter ~labels ~help:"paranoid byte comparisons that failed"
          "scallop_dp_paranoid_mismatches";
      egress_hook = (fun ~receiver:_ ~ssrc:_ ~template:_ ~size:_ -> ());
      pool;
      pool_some = Some pool;
      free_batches = nil_batch;
      scratch = fresh_scratch ();
    }
  in
  let pool_gauge name help field =
    Metrics.register_callback ~labels ~help name (fun () ->
        float_of_int (field (Bufpool.stats pool)))
  in
  pool_gauge "scallop_dp_pool_live" "replica buffers checked out right now"
    (fun s -> s.Bufpool.live);
  pool_gauge "scallop_dp_pool_high_water" "peak simultaneously-live replica buffers"
    (fun s -> s.Bufpool.high_water);
  pool_gauge "scallop_dp_pool_parked_bytes" "bytes parked in replica free lists"
    (fun s -> s.Bufpool.parked_bytes);
  pool_gauge "scallop_dp_alloc_recycled_buffers"
    "replica checkouts served from a free list" (fun s -> s.Bufpool.recycled);
  pool_gauge "scallop_dp_alloc_fresh_buffers" "replica checkouts that had to allocate"
    (fun s -> s.Bufpool.fresh);
  t

let ip t = t.ip
let obs_label t = t.obs_label
let trees t = t.trees
let pre t = t.pre

let set_mode t mode =
  t.mode <- mode;
  Bufpool.set_debug t.pool (mode = Paranoid)

let set_cpu_sink t sink = t.cpu_sink <- sink
let set_egress_hook t hook = t.egress_hook <- hook

let to_cpu t dgram =
  t.cpu_pkts <- t.cpu_pkts + 1;
  t.cpu_bytes <- t.cpu_bytes + Dgram.wire_size dgram;
  (* the CPU sink runs after this handler has returned, by which point a
     pooled payload (cascade-relay ingress) is already recycled — detach
     it with a copy; the ordinary client-ingress case stays zero-copy *)
  let dgram =
    match dgram.Dgram.pool with
    | None -> dgram
    | Some _ ->
        Dgram.v ~trace:dgram.Dgram.trace ~src:dgram.Dgram.src ~dst:dgram.Dgram.dst
          (Bytes.copy dgram.Dgram.payload)
  in
  Engine.schedule t.engine ~after:cpu_port_latency_ns (fun () -> t.cpu_sink dgram)

let inject t dgram = Network.send t.network dgram

let new_batch t =
  let b =
    { slots = Array.make 64 dummy_dgram; b_n = 0; fire = (fun () -> ()); b_link = nil_batch }
  in
  b.fire <-
    (fun () ->
      for i = 0 to b.b_n - 1 do
        Network.send t.network b.slots.(i);
        b.slots.(i) <- dummy_dgram
      done;
      b.b_n <- 0;
      b.b_link <- t.free_batches;
      t.free_batches <- b);
  b

let take_batch t =
  let b = t.free_batches in
  if b == nil_batch then new_batch t
  else begin
    t.free_batches <- b.b_link;
    b.b_link <- nil_batch;
    b
  end

let recycle_batch t b =
  b.b_link <- t.free_batches;
  t.free_batches <- b

let batch_add b dgram =
  let cap = Array.length b.slots in
  if b.b_n = cap then begin
    let grown = Array.make (2 * cap) dummy_dgram in
    Array.blit b.slots 0 grown 0 b.b_n;
    b.slots <- grown
  end;
  b.slots.(b.b_n) <- dgram;
  b.b_n <- b.b_n + 1

(* [pool] is [t.pool_some] for replica buffers the pool owns (released by
   the network layer when the datagram's life ends) and [None] for
   GC-owned payloads. *)
let emit t ~batch ~pool ~trace ~receiver ~ssrc ~template ~src ~dst payload =
  let size = Bytes.length payload + 42 in
  if t.header_auth then t.headers_authenticated <- t.headers_authenticated + 1;
  t.egress_pkts <- t.egress_pkts + 1;
  t.egress_bytes <- t.egress_bytes + size;
  t.egress_hook ~receiver ~ssrc ~template ~size;
  (* a record literal, not [Dgram.v]: passing [~trace] to its optional
     argument would box it, and the datagram is this path's only
     allocation *)
  batch_add batch { Dgram.src; dst; payload; trace; pool }

let flush_egress t ~ingress_ns batch =
  if batch.b_n = 0 then recycle_batch t batch
  else begin
    let time = max (ingress_ns + t.pipeline_latency_ns) (Engine.now t.engine) in
    Engine.at t.engine ~time batch.fire
  end

(* --- configuration -------------------------------------------------------- *)

let register_uplink ?(renditions = [||]) t ~port ~sender ~meeting ~video_ssrc ~audio_ssrc =
  table_insert t.uplinks port
    { entry = { sender; meeting; video_ssrc; audio_ssrc; renditions; feedback_dst = None } }

let unregister_uplink t ~port = Tofino.Table.remove t.uplinks port

let swap_meeting_handle t ~port handle =
  match Tofino.Table.lookup t.uplinks port with
  | Some slot -> slot.entry <- { slot.entry with meeting = handle }
  | None -> invalid_arg "Dataplane.swap_meeting_handle: unknown uplink"

let alloc_stream_index t =
  match t.free_stream_indices with
  | i :: rest ->
      t.free_stream_indices <- rest;
      i
  | [] ->
      if t.next_stream_index >= stream_index_capacity then
        failwith "Dataplane: stream index table full (65,536 rate-adapted streams)";
      let i = t.next_stream_index in
      t.next_stream_index <- i + 1;
      i

let register_leg ?simulcast t ~receiver ~video_ssrc ~audio_ssrc ~dst ~src_port ~uplink_port
    ~rewrite =
  let rewriter, stream_index =
    match rewrite with
    | None -> (None, -1)
    | Some variant ->
        let idx = alloc_stream_index t in
        (Some (Seq_rewrite.create variant ~target:Dd.DT_30fps), idx)
  in
  let simulcast_state = Option.map (fun renditions -> Simulcast.create ~renditions) simulcast in
  let leg =
    {
      leg_receiver = receiver;
      leg_video_ssrc = video_ssrc;
      dst;
      src_port;
      src = Addr.v t.ip src_port;
      uplink_port;
      target = Dd.DT_30fps;
      forward_remb = false;
      rewriter;
      simulcast = simulcast_state;
      stream_index;
    }
  in
  let insert ssrc =
    if ssrc land 0xFFFF_FFFF <> ssrc then
      invalid_arg (Printf.sprintf "Dataplane.register_leg: SSRC %#x is not 32-bit" ssrc);
    table_insert t.legs (leg_key ~receiver ~ssrc) leg
  in
  insert video_ssrc;
  insert audio_ssrc;
  Option.iter (Array.iter insert) simulcast;
  table_insert t.leg_by_port src_port leg

let unregister_leg t ~receiver ~video_ssrc =
  match Tofino.Table.lookup t.legs (leg_key ~receiver ~ssrc:video_ssrc) with
  | None -> ()
  | Some leg ->
      if leg.stream_index >= 0 then begin
        t.free_stream_indices <- leg.stream_index :: t.free_stream_indices;
        Array.iter (fun r -> Tofino.Register.clear_index r leg.stream_index) t.trackers
      end;
      Tofino.Table.remove t.leg_by_port leg.src_port;
      let keys =
        Tofino.Table.fold t.legs (fun k l acc -> if l == leg then k :: acc else acc) []
      in
      List.iter (Tofino.Table.remove t.legs) keys

(* Power-cycle the match-action state: every table entry gone, every
   stream-tracker cell zeroed, the stream-index allocator back to a
   fresh boot. PRE trees are NOT touched here — they belong to the
   agent's meeting records, and {!Switch_agent}'s wipe unregisters them
   meeting by meeting before calling this. *)
let reset t =
  Tofino.Table.iter t.leg_by_port (fun _ leg ->
      if leg.stream_index >= 0 then
        Array.iter (fun r -> Tofino.Register.clear_index r leg.stream_index) t.trackers);
  Tofino.Table.clear t.uplinks;
  Tofino.Table.clear t.legs;
  Tofino.Table.clear t.leg_by_port;
  t.free_stream_indices <- [];
  t.next_stream_index <- 0

let set_leg_target t ~receiver ~video_ssrc target =
  match Tofino.Table.lookup t.legs (leg_key ~receiver ~ssrc:video_ssrc) with
  | None -> ()
  | Some leg ->
      leg.target <- target;
      Option.iter (fun rw -> Seq_rewrite.set_target rw target) leg.rewriter

let set_leg_rendition t ~leg_port rendition =
  match Tofino.Table.lookup t.leg_by_port leg_port with
  | Some { simulcast = Some sc; _ } -> Simulcast.request_switch sc rendition
  | Some _ | None -> ()

let leg_rendition t ~leg_port =
  match Tofino.Table.lookup t.leg_by_port leg_port with
  | Some { simulcast = Some sc; _ } -> Some (Simulcast.active sc)
  | Some _ | None -> None

(* Ask the sender for a key frame of one stream: a PLI from the switch,
   used to drive simulcast rendition switches. *)
let request_keyframe t ~uplink_port ~ssrc =
  match Tofino.Table.lookup t.uplinks uplink_port with
  | Some { entry = { feedback_dst = Some dst; _ }; _ } ->
      let buf = Rtp.Rtcp.serialize_compound [ Rtp.Rtcp.Pli { sender_ssrc = 0; media_ssrc = ssrc } ] in
      Network.send t.network (Dgram.v ~src:(Addr.v t.ip uplink_port) ~dst buf)
  | Some _ | None -> ()

let set_remb_forwarding t ~leg_port enabled =
  match Tofino.Table.lookup t.leg_by_port leg_port with
  | Some leg -> leg.forward_remb <- enabled
  | None -> ()

(* --- media path ------------------------------------------------------------ *)

let parse_dd pkt =
  match Packet.find_extension pkt Dd.extension_id with
  | None -> None
  | Some data -> ( try Some (Dd.parse data) with Rtp.Wire.Parse_error _ -> None)

(* Memoized record parse of the scratch context's ingress bytes. *)
let parsed ctx =
  match ctx.c_parsed with
  | Some p -> p
  | None ->
      let pkt = Packet.parse ctx.c_payload in
      let dd = if ctx.c_is_video then parse_dd pkt else None in
      let p = (pkt, dd) in
      ctx.c_parsed <- Some p;
      p

(* The stateful egress decision for one replica of the packet in [ctx]
   (simulcast splice, layer suppression, sequence rewrite): [false]
   suppresses it; [true] forwards it, with the rewrite left in [ctx]'s
   decision fields for the materializers. *)
let decide leg ctx =
  ctx.c_out_ssrc <- ctx.c_ssrc;
  match ctx.c_fields with
  | None ->
      ctx.c_rw <- Verbatim;
      ctx.c_template <- -1;
      true
  | Some f -> (
      ctx.c_template <- f.Dd.f_template_id;
      match leg.simulcast with
      | Some sc -> (
          let keyframe_start = f.Dd.f_start_of_frame && f.Dd.f_template_id = 0 in
          match
            Simulcast.on_packet sc ~ssrc:ctx.c_ssrc ~seq:ctx.c_seq ~frame:f.Dd.f_frame_number
              ~keyframe_start
          with
          | Simulcast.Drop -> false
          | Simulcast.Forward { ssrc; seq; frame } ->
              ctx.c_rw <- Patch_splice;
              ctx.c_out_ssrc <- ssrc;
              ctx.c_out_seq <- seq;
              ctx.c_out_frame <- frame;
              true)
      | None ->
          Dd.template_in_target_l1t3 f.Dd.f_template_id leg.target
          &&
          let seq =
            match leg.rewriter with
            | Some rw ->
                Seq_rewrite.on_packet rw ~seq:ctx.c_seq ~frame:f.Dd.f_frame_number
                  ~start_of_frame:f.Dd.f_start_of_frame ~end_of_frame:f.Dd.f_end_of_frame
            | None -> ctx.c_seq
          in
          ctx.c_rw <- Patch_seq;
          ctx.c_out_seq <- seq;
          seq >= 0)

(* Fast materialization: blit the ingress bytes into a pooled buffer, then
   fixed-offset patches — the model equivalent of the hardware header
   rewrite. The pool serves the checkout from a free list in steady state
   (media streams use few distinct packet sizes), so the fan-out's
   dominant allocation cost disappears; the buffer returns to the pool
   when the network layer terminates the datagram. *)
let materialize_fast t (view : Packet.View.t) ctx =
  Metrics.incr t.replica_copies;
  let src = view.Packet.View.buf in
  let len = Bytes.length src in
  let buf = Bufpool.checkout t.pool len in
  Bytes.blit src 0 buf 0 len;
  (match ctx.c_rw with
  | Verbatim -> ()
  | Patch_seq -> Rtp.Wire.Patch.u16 buf ~pos:Packet.View.sequence_pos ctx.c_out_seq
  | Patch_splice ->
      Rtp.Wire.Patch.u16 buf ~pos:Packet.View.sequence_pos ctx.c_out_seq;
      Rtp.Wire.Patch.u32 buf ~pos:Packet.View.ssrc_pos ctx.c_out_ssrc;
      Rtp.Wire.Patch.u16 buf
        ~pos:(view.Packet.View.ext_off + Dd.frame_number_pos)
        ctx.c_out_frame);
  buf

(* Slow materialization: the record-based path, kept verbatim as the
   executable spec the fast path is byte-checked against. *)
let materialize_slow (pkt, dd) ctx =
  match ctx.c_rw with
  | Verbatim -> Packet.serialize pkt
  | Patch_seq -> Packet.serialize (Packet.with_sequence pkt ctx.c_out_seq)
  | Patch_splice ->
      let dd = Option.get dd in
      let dd' = { dd with Dd.frame_number = ctx.c_out_frame } in
      let data = Dd.serialize dd' in
      let pkt' =
        {
          (Packet.with_sequence (Packet.with_ssrc pkt ctx.c_out_ssrc) ctx.c_out_seq) with
          Packet.extensions =
            List.map
              (fun (e : Packet.extension) ->
                if e.Packet.id = Dd.extension_id then { e with Packet.data } else e)
              pkt.Packet.extensions;
        }
      in
      Packet.serialize pkt'

let materialize t ctx =
  match (t.mode, ctx.c_view) with
  | Slow, _ | _, None -> materialize_slow (parsed ctx) ctx
  | Fast, Some view -> materialize_fast t view ctx
  | Paranoid, Some view ->
      let fast = materialize_fast t view ctx in
      let slow = materialize_slow (parsed ctx) ctx in
      Metrics.incr t.paranoid_checks;
      if not (Bytes.equal fast slow) then begin
        Metrics.incr t.paranoid_mismatches;
        raise
          (Differential_mismatch
             (Printf.sprintf
                "ssrc=%#x seq=%d: fast path emitted %d bytes, slow path %d bytes"
                ctx.c_ssrc ctx.c_seq (Bytes.length fast) (Bytes.length slow)))
      end;
      fast

(* Deliver one replica of a media packet to a receiver's leg. On the
   fast path, untraced and off simulcast legs, the egress [Dgram.t] is
   its only allocation. *)
let egress_media t ~batch ~receiver ctx =
  let leg =
    Tofino.Table.lookup_or t.legs (leg_key ~receiver ~ssrc:ctx.c_ssrc) ~default:nil_leg
  in
  if leg == nil_leg then ()
  else if not (decide leg ctx) then begin
    t.replicas_suppressed <- t.replicas_suppressed + 1;
    if ctx.c_trace >= 0 && Trace.enabled Trace.Verbose then
      Trace.instant ~ts:(Engine.now t.engine) ~trace:ctx.c_trace ~cat:"dp" "suppress"
        ~args:[ ("receiver", Trace.I receiver) ]
  end
  else begin
    if ctx.c_trace >= 0 && Trace.enabled Trace.Packet then
      Trace.instant ~ts:(Engine.now t.engine) ~trace:ctx.c_trace ~cat:"dp" "egress"
        ~args:[ ("receiver", Trace.I receiver); ("ssrc", Trace.I ctx.c_out_ssrc) ];
    let payload = materialize t ctx in
    (* pooled iff the fast materializer produced it *)
    let pool =
      match (t.mode, ctx.c_view) with
      | Slow, _ | _, None -> None
      | _ -> t.pool_some
    in
    emit t ~batch ~pool ~trace:ctx.c_trace ~receiver ~ssrc:ctx.c_out_ssrc
      ~template:ctx.c_template ~src:leg.src ~dst:leg.dst payload
  end

let fanout t ~ingress_ns uplink ctx =
  let layer =
    match ctx.c_fields with
    | Some f -> (
        try Dd.layer_of_template_l1t3 f.Dd.f_template_id
        with Rtp.Wire.Parse_error _ -> Dd.T0)
    | None -> Dd.T0
  in
  let batch = take_batch t in
  (match Trees.route_media t.trees uplink.meeting ~sender:uplink.sender ~layer with
  | Trees.No_receivers -> ()
  | Trees.Unicast { receiver; _ } -> egress_media t ~batch ~receiver ctx
  | Trees.Replicate { mgid; l1_xid; rid; l2_xid } ->
      let traced = ctx.c_trace >= 0 && Trace.enabled Trace.Packet in
      let fanout_event ~replicas ~cache =
        Trace.instant ~ts:ingress_ns ~trace:ctx.c_trace ~cat:"pre" "pre_fanout"
          ~args:
            [
              ("mgid", Trace.I mgid);
              ("l1_xid", Trace.I l1_xid);
              ("rid", Trace.I rid);
              ("l2_xid", Trace.I l2_xid);
              ("replicas", Trace.I replicas);
              ("cache", Trace.S cache);
            ]
      in
      let each (r : Tofino.Pre.replica) =
        let receiver = Trees.receiver_of_replica t.trees uplink.meeting ~mgid ~rid:r.rid in
        if receiver >= 0 then egress_media t ~batch ~receiver ctx
      in
      if t.mode = Slow then begin
        let replicas = Tofino.Pre.replicate t.pre ~mgid ~l1_xid ~rid ~l2_xid in
        if traced then fanout_event ~replicas:(List.length replicas) ~cache:"bypass";
        List.iter each replicas
      end
      else begin
        let hits_before = if traced then Tofino.Pre.cache_hit_count t.pre else 0 in
        let replicas = Tofino.Pre.replicate_cached t.pre ~mgid ~l1_xid ~rid ~l2_xid in
        if traced then
          fanout_event ~replicas:(Array.length replicas)
            ~cache:
              (if Tofino.Pre.cache_hit_count t.pre > hits_before then "hit" else "miss");
        Array.iter each replicas
      end);
  flush_egress t ~ingress_ns batch

(* Fill the scratch context from one ingress datagram. In [Slow] mode
   this is the pre-fast-path pipeline unchanged (full parse, no view);
   otherwise a single pass of [Packet.View.of_bytes] + [Dd.read_fields]
   supplies everything the decision phase needs, and the record parse
   stays memoized-on-demand (forced only for non-canonical ingress or
   paranoid checking). Returns [false] exactly when [Packet.parse] would
   reject the datagram. *)
let ingest t uplink (dgram : Dgram.t) =
  let ctx = t.scratch in
  ctx.c_trace <- -1;
  ctx.c_parsed <- None;
  ctx.c_view <- None;
  ctx.c_fields <- None;
  ctx.c_payload <- dgram.payload;
  if t.mode = Slow then
    match Packet.parse dgram.payload with
    | exception Rtp.Wire.Parse_error _ -> false
    | pkt ->
        let is_rendition =
          Array.exists (fun ssrc -> ssrc = pkt.Packet.ssrc) uplink.renditions
        in
        let is_video = pkt.Packet.ssrc = uplink.video_ssrc || is_rendition in
        let dd = if is_video then parse_dd pkt else None in
        ctx.c_ssrc <- pkt.Packet.ssrc;
        ctx.c_seq <- pkt.Packet.sequence;
        ctx.c_fields <- Option.map Dd.fields_of_t dd;
        ctx.c_is_video <- is_video;
        ctx.c_parsed <- Some (pkt, dd);
        true
  else
    match Packet.View.of_bytes ~ext_id:Dd.extension_id dgram.payload with
    | exception Rtp.Wire.Parse_error _ -> false
    | view ->
        let ssrc = view.Packet.View.ssrc in
        let is_rendition = Array.exists (fun s -> s = ssrc) uplink.renditions in
        let is_video = ssrc = uplink.video_ssrc || is_rendition in
        let fields =
          if is_video && view.Packet.View.ext_off >= 0 then
            Dd.read_fields view.Packet.View.buf ~off:view.Packet.View.ext_off
              ~len:view.Packet.View.ext_len
          else None
        in
        (* a non-canonical descriptor only matters if the splice path
           would reserialize it, but routing those rare packets through
           the slow path keeps the equivalence argument unconditional *)
        let dd_canonical =
          match fields with Some f -> f.Dd.f_canonical | None -> true
        in
        let fast_ok = view.Packet.View.canonical && dd_canonical in
        ctx.c_ssrc <- ssrc;
        ctx.c_seq <- view.Packet.View.sequence;
        ctx.c_fields <- fields;
        ctx.c_view <- (if fast_ok then Some view else None);
        ctx.c_is_video <- is_video;
        true

let handle_media t uplink (dgram : Dgram.t) =
  let ingress_ns = Engine.now t.engine in
  let size = Dgram.wire_size dgram in
  if not (ingest t uplink dgram) then begin
    t.ingress.other_pkts <- t.ingress.other_pkts + 1;
    t.ingress.other_bytes <- t.ingress.other_bytes + size
  end
  else begin
    let ctx = t.scratch in
      if uplink.feedback_dst = None then uplink.feedback_dst <- Some dgram.src;
      let has_structure =
        match ctx.c_fields with Some f -> f.Dd.f_has_structure | None -> false
      in
      if ctx.c_ssrc = uplink.audio_ssrc then begin
        t.ingress.rtp_audio_pkts <- t.ingress.rtp_audio_pkts + 1;
        t.ingress.rtp_audio_bytes <- t.ingress.rtp_audio_bytes + size
      end
      else if has_structure then begin
        (* extended dependency descriptor: the data plane cannot parse the
           template structure; copy to the agent (Appendix E) *)
        t.ingress.rtp_av1_ds_pkts <- t.ingress.rtp_av1_ds_pkts + 1;
        t.ingress.rtp_av1_ds_bytes <- t.ingress.rtp_av1_ds_bytes + size;
        to_cpu t dgram
      end
      else begin
        t.ingress.rtp_video_pkts <- t.ingress.rtp_video_pkts + 1;
        t.ingress.rtp_video_bytes <- t.ingress.rtp_video_bytes + size
      end;
      if ctx.c_view <> None then Metrics.incr t.fast_pkts
      else Metrics.incr t.slow_pkts;
      (* Causal tracing: adopt the ingress datagram's id when the sender
         stamped one, else sample a fresh id. Both tests are false when
         tracing is off, so the untraced path pays two comparisons. *)
      (if Trace.enabled Trace.Packet then begin
         ctx.c_trace <-
           (if dgram.Dgram.trace >= 0 then dgram.Dgram.trace
            else Trace.next_packet_id ());
         if ctx.c_trace >= 0 then
           Trace.instant ~ts:ingress_ns ~trace:ctx.c_trace ~cat:"dp" "ingress"
             ~args:
               [
                 ("ssrc", Trace.I ctx.c_ssrc);
                 ("seq", Trace.I ctx.c_seq);
                 ("size", Trace.I size);
                 ("path", Trace.S (if ctx.c_view <> None then "fast" else "slow"));
               ]
       end);
      fanout t ~ingress_ns uplink ctx
  end

(* --- feedback path ----------------------------------------------------------- *)

(* Sender-side RTCP (SR/SDES): replicated downstream to every receiver of
   this sender's streams, re-addressed per leg. *)
let handle_sender_rtcp t uplink (dgram : Dgram.t) =
  let ingress_ns = Engine.now t.engine in
  let size = Dgram.wire_size dgram in
  (* Table 1 counts RTCP packets, several of which share one compound
     datagram. *)
  let subpackets =
    match Rtp.Rtcp.parse_compound dgram.payload with
    | exception Rtp.Wire.Parse_error _ -> 1
    | ps -> max 1 (List.length ps)
  in
  t.ingress.rtcp_sr_sdes_pkts <- t.ingress.rtcp_sr_sdes_pkts + subpackets;
  t.ingress.rtcp_sr_sdes_bytes <- t.ingress.rtcp_sr_sdes_bytes + size;
  if uplink.feedback_dst = None then uplink.feedback_dst <- Some dgram.src;
  (* Every replica shares the one ingress payload (RTCP is forwarded
     verbatim), so these egress datagrams are GC-owned, not pooled. A
     pooled ingress buffer (cascade-relay hop) is recycled when this
     handler returns, before the flush fires — detach it with a copy. *)
  let payload =
    match dgram.Dgram.pool with
    | None -> dgram.payload
    | Some _ -> Bytes.copy dgram.payload
  in
  let batch = take_batch t in
  let to_receiver receiver =
    match Tofino.Table.lookup t.legs (leg_key ~receiver ~ssrc:uplink.video_ssrc) with
    | Some leg ->
        emit t ~batch ~pool:None ~trace:dgram.Dgram.trace ~receiver ~ssrc:uplink.video_ssrc
          ~template:(-1) ~src:leg.src ~dst:leg.dst payload
    | None -> ()
  in
  (match
     Trees.route_media t.trees uplink.meeting ~sender:uplink.sender ~layer:Dd.T0
   with
  | Trees.No_receivers -> ()
  | Trees.Unicast { receiver; _ } -> to_receiver receiver
  | Trees.Replicate { mgid; l1_xid; rid; l2_xid } ->
      let each (r : Tofino.Pre.replica) =
        let receiver = Trees.receiver_of_replica t.trees uplink.meeting ~mgid ~rid:r.rid in
        if receiver >= 0 then to_receiver receiver
      in
      if t.mode = Slow then
        List.iter each (Tofino.Pre.replicate t.pre ~mgid ~l1_xid ~rid ~l2_xid)
      else Array.iter each (Tofino.Pre.replicate_cached t.pre ~mgid ~l1_xid ~rid ~l2_xid));
  flush_egress t ~ingress_ns batch

(* Receiver-side RTCP (RR/REMB/NACK/PLI) arriving on a leg port: forward
   the actionable parts upstream (REMB gated by the agent's filter) and
   copy everything to the CPU port for analysis. *)
let handle_receiver_rtcp t leg (dgram : Dgram.t) =
  let ingress_ns = Engine.now t.engine in
  let size = Dgram.wire_size dgram in
  let packets =
    match Rtp.Rtcp.parse_compound dgram.payload with
    | exception Rtp.Wire.Parse_error _ -> []
    | ps -> ps
  in
  let has_remb = List.exists (function Rtp.Rtcp.Remb _ -> true | _ -> false) packets in
  let subpackets = max 1 (List.length packets) in
  if has_remb then begin
    t.ingress.rtcp_remb_pkts <- t.ingress.rtcp_remb_pkts + subpackets;
    t.ingress.rtcp_remb_bytes <- t.ingress.rtcp_remb_bytes + size
  end
  else begin
    t.ingress.rtcp_rr_pkts <- t.ingress.rtcp_rr_pkts + subpackets;
    t.ingress.rtcp_rr_bytes <- t.ingress.rtcp_rr_bytes + size
  end;
  (match Tofino.Table.lookup t.uplinks leg.uplink_port with
  | None -> ()
  | Some slot -> (
      let uplink = slot.entry in
      match uplink.feedback_dst with
      | None -> ()
      | Some dst ->
          let forwardable =
            List.filter_map
              (fun p ->
                match p with
                | Rtp.Rtcp.Nack n -> (
                    match leg.simulcast with
                    | Some sc ->
                        (* a spliced stream cannot serve retransmissions
                           (the sequence spaces were joined); refresh the
                           active rendition instead *)
                        let active = Simulcast.active sc in
                        let ssrc =
                          match Tofino.Table.lookup t.uplinks leg.uplink_port with
                          | Some { entry = { renditions; _ }; _ }
                            when active < Array.length renditions ->
                              renditions.(active)
                          | _ -> n.media_ssrc
                        in
                        Some (Rtp.Rtcp.Pli { sender_ssrc = 0; media_ssrc = ssrc })
                    | None ->
                        (* The receiver names sequence numbers in the
                           rewritten space; translate back by the leg's
                           current offset so the sender's retransmission
                           buffer can find them. *)
                        let offset =
                          match leg.rewriter with
                          | Some rw -> Seq_rewrite.offset rw
                          | None -> 0
                        in
                        let lost = List.map (fun s -> (s + offset) land 0xFFFF) n.lost in
                        Some (Rtp.Rtcp.Nack { n with lost }))
                | Rtp.Rtcp.Pli _ | Rtp.Rtcp.Twcc _ -> Some p
                | Rtp.Rtcp.Remb _ | Rtp.Rtcp.Receiver_report _ ->
                    if leg.forward_remb then Some p else None
                | Rtp.Rtcp.Sender_report _ | Rtp.Rtcp.Sdes _ | Rtp.Rtcp.Bye _ -> None)
              packets
          in
          if forwardable <> [] then begin
            let payload = Rtp.Rtcp.serialize_compound forwardable in
            let out_size = Bytes.length payload + 42 in
            t.egress_pkts <- t.egress_pkts + 1;
            t.egress_bytes <- t.egress_bytes + out_size;
            (* the forwarded compound inherits the inbound RTCP's trace id:
               a retained copy must never orphan the packet's timeline *)
            let out =
              Dgram.v ~trace:dgram.Dgram.trace
                ~src:(Addr.v t.ip leg.uplink_port)
                ~dst payload
            in
            Engine.at t.engine
              ~time:(max (ingress_ns + t.pipeline_latency_ns) (Engine.now t.engine))
              (fun () -> Network.send t.network out)
          end));
  to_cpu t dgram

(* --- top-level classification ------------------------------------------------ *)

let handler t (dgram : Dgram.t) =
  let size = Dgram.wire_size dgram in
  let port = dgram.dst.Addr.port in
  match Rtp.Demux.classify dgram.payload with
  | Rtp.Demux.Rtp_media -> (
      match Tofino.Table.lookup t.uplinks port with
      | Some slot -> handle_media t slot.entry dgram
      | None ->
          t.ingress.other_pkts <- t.ingress.other_pkts + 1;
          t.ingress.other_bytes <- t.ingress.other_bytes + size)
  | Rtp.Demux.Rtcp_feedback -> (
      match Tofino.Table.lookup t.uplinks port with
      | Some slot -> handle_sender_rtcp t slot.entry dgram
      | None -> (
          match Tofino.Table.lookup t.leg_by_port port with
          | Some leg -> handle_receiver_rtcp t leg dgram
          | None ->
              t.ingress.other_pkts <- t.ingress.other_pkts + 1;
              t.ingress.other_bytes <- t.ingress.other_bytes + size))
  | Rtp.Demux.Stun_packet ->
      t.ingress.stun_pkts <- t.ingress.stun_pkts + 1;
      t.ingress.stun_bytes <- t.ingress.stun_bytes + size;
      to_cpu t dgram
  | Rtp.Demux.Unknown ->
      t.ingress.other_pkts <- t.ingress.other_pkts + 1;
      t.ingress.other_bytes <- t.ingress.other_bytes + size

let create engine network ~ip ?header_auth ?mode ?obs_label () =
  let t = create engine network ~ip ?header_auth ?mode ?obs_label () in
  Network.bind_host network ~ip (handler t);
  t

(* --- stats ---------------------------------------------------------------- *)

let ingress_counters t = t.ingress
let cpu_pkts t = t.cpu_pkts
let cpu_bytes t = t.cpu_bytes
let egress_pkts t = t.egress_pkts
let egress_bytes t = t.egress_bytes
let replicas_suppressed t = t.replicas_suppressed

type fastpath_stats = {
  fp_fast_pkts : int;
  fp_slow_pkts : int;
  fp_replica_copies : int;
  fp_paranoid_checks : int;
  fp_paranoid_mismatches : int;
  fp_cache_hits : int;
  fp_cache_misses : int;
  fp_cache_invalidations : int;
  fp_cache_entries : int;
  fp_pool_live : int;
  fp_pool_high_water : int;
  fp_pool_recycled : int;
  fp_pool_fresh : int;
}

let fastpath_stats t =
  let pre what = Metrics.read ~labels:[ ("pre", t.obs_label) ] ("scallop_pre_cache_" ^ what) in
  let p = Bufpool.stats t.pool in
  {
    fp_fast_pkts = Metrics.value t.fast_pkts;
    fp_slow_pkts = Metrics.value t.slow_pkts;
    fp_replica_copies = Metrics.value t.replica_copies;
    fp_paranoid_checks = Metrics.value t.paranoid_checks;
    fp_paranoid_mismatches = Metrics.value t.paranoid_mismatches;
    fp_cache_hits = pre "hits";
    fp_cache_misses = pre "misses";
    fp_cache_invalidations = pre "invalidations";
    fp_cache_entries = pre "entries";
    fp_pool_live = p.Bufpool.live;
    fp_pool_high_water = p.Bufpool.high_water;
    fp_pool_recycled = p.Bufpool.recycled;
    fp_pool_fresh = p.Bufpool.fresh;
  }

let pool_stats t = Bufpool.stats t.pool
let header_auth_enabled t = t.header_auth
let headers_authenticated t = t.headers_authenticated

(* --- introspection (snapshot layer) ---------------------------------------- *)

type table_occupancy = { tbl_name : string; tbl_size : int; tbl_capacity : int }

let table_occupancy t =
  let of_table : 'k 'v. ('k, 'v) Tofino.Table.t -> table_occupancy =
   fun tbl ->
    {
      tbl_name = Tofino.Table.name tbl;
      tbl_size = Tofino.Table.size tbl;
      tbl_capacity = Tofino.Table.capacity tbl;
    }
  in
  [
    of_table t.uplinks;
    of_table t.legs;
    of_table t.leg_by_port;
    {
      tbl_name = "stream_index";
      tbl_size = t.next_stream_index - List.length t.free_stream_indices;
      tbl_capacity = stream_index_capacity;
    };
  ]

type uplink_view = {
  uv_port : int;
  uv_sender : int;
  uv_meeting : Trees.handle;
  uv_video_ssrc : int;
  uv_audio_ssrc : int;
  uv_renditions : int array;
}

let uplinks_view t =
  Tofino.Table.fold t.uplinks
    (fun port slot acc ->
      {
        uv_port = port;
        uv_sender = slot.entry.sender;
        uv_meeting = slot.entry.meeting;
        uv_video_ssrc = slot.entry.video_ssrc;
        uv_audio_ssrc = slot.entry.audio_ssrc;
        uv_renditions = slot.entry.renditions;
      }
      :: acc)
    []

type leg_view = {
  lv_receiver : int;
  lv_video_ssrc : int;
  lv_dst : Addr.t;
  lv_src_port : int;
  lv_uplink_port : int;
  lv_stream_index : int;
  lv_forward_remb : bool;
  lv_target : Dd.decode_target;
  lv_ssrc_keys : int list;  (** every SSRC the egress table maps to this leg *)
}

let legs_view t =
  let by_leg = Hashtbl.create 64 in
  Tofino.Table.iter t.legs (fun key leg ->
      let receiver = leg.leg_receiver and ssrc = key land 0xFFFF_FFFF in
      let keys =
        match Hashtbl.find_opt by_leg (receiver, leg.src_port) with
        | Some (_, keys) -> ssrc :: keys
        | None -> [ ssrc ]
      in
      Hashtbl.replace by_leg (receiver, leg.src_port) (leg, keys));
  Hashtbl.fold
    (fun (receiver, _) (leg, keys) acc ->
      {
        lv_receiver = receiver;
        lv_video_ssrc = leg.leg_video_ssrc;
        lv_dst = leg.dst;
        lv_src_port = leg.src_port;
        lv_uplink_port = leg.uplink_port;
        lv_stream_index = leg.stream_index;
        lv_forward_remb = leg.forward_remb;
        lv_target = leg.target;
        lv_ssrc_keys = List.sort compare keys;
      }
      :: acc)
    by_leg []

let feedback_view t =
  Tofino.Table.fold t.leg_by_port
    (fun port leg acc -> (port, leg.leg_receiver) :: acc)
    []

let stream_index_state t = (t.free_stream_indices, t.next_stream_index)

(* Deliberate corruption hooks for the analysis mutation harness — each
   breaks a bookkeeping invariant the registration API maintains. *)
module Unsafe = struct
  let drop_feedback_entry t ~src_port = Tofino.Table.remove t.leg_by_port src_port
  let push_free_stream_index t idx = t.free_stream_indices <- idx :: t.free_stream_indices
end

let resource_program t =
  let open Tofino.Resources in
  {
    (* depth-aware RTP-extension parse tree (Appendix E) dominates ingress *)
    ingress_parser_depth = Tofino.Parser.graph_depth;
    egress_parser_depth = 7;
    ingress_stages = 7;
    egress_stages = 5;
    tables =
      [
        {
          t_name = "uplink";
          entries = max 1024 (Tofino.Table.size t.uplinks);
          key_bytes = 2;
          value_bytes = 12;
          ternary = false;
        };
        {
          t_name = "egress_leg";
          entries = max 4096 (Tofino.Table.size t.legs);
          key_bytes = 8;
          value_bytes = 10;
          ternary = false;
        };
        {
          t_name = "feedback";
          entries = max 4096 (Tofino.Table.size t.leg_by_port);
          key_bytes = 2;
          value_bytes = 8;
          ternary = false;
        };
        {
          t_name = "stream_index";
          entries = stream_index_capacity;
          key_bytes = 12;
          value_bytes = 2;
          ternary = false;
        };
        { t_name = "classify"; entries = 64; key_bytes = 4; value_bytes = 1; ternary = true };
      ]
      @
      (* SipHash over the 20-byte header uses a small round-key table and
         extra VLIW work, per the feasibility argument of §8 *)
      (if t.header_auth then
         [ { t_name = "hmac_keys"; entries = 256; key_bytes = 4; value_bytes = 16; ternary = false } ]
       else []);
    registers =
      Array.to_list t.trackers
      |> List.map (fun r ->
             { r_name = Tofino.Register.name r; r_cells = Tofino.Register.cells r; width_bytes = 4 });
    phv_bits_used = (if t.header_auth then 1044 else 916);
    vliw_used = (if t.header_auth then 61 else 47);
  }
