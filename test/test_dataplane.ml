(* Direct data-plane tests: classification, table writes, feedback gating
   and NACK translation — driven packet by packet, no clients. *)

module Addr = Scallop_util.Addr
module Rng = Scallop_util.Rng
module Engine = Netsim.Engine
module Network = Netsim.Network
module Dgram = Netsim.Dgram
module Packet = Rtp.Packet
module Rtcp = Rtp.Rtcp
module Dd = Av1.Dd
module Dp = Scallop.Dataplane

let sfu_ip = Addr.ip_of_string "10.0.0.1"
let sender_addr = Addr.v (Addr.ip_of_string "10.0.1.1") 5000
let receiver_addr = Addr.v (Addr.ip_of_string "10.0.1.2") 6000

let uplink_port = 41_000
let leg_port = 42_000

type world = {
  engine : Engine.t;
  network : Network.t;
  dp : Dp.t;
  received : Dgram.t list ref;  (** at the receiver *)
  at_sender : Dgram.t list ref;  (** upstream feedback *)
  cpu : Dgram.t list ref;
}

(* A minimal hand-wired session: one sender uplink, one receiver leg, a
   two-participant meeting in the trees. The paranoid differential mode is
   always on in tests: every emitted datagram is byte-checked fast vs
   slow. *)
let setup ?(mode = Dp.Paranoid) ?(rewrite = Some Scallop.Seq_rewrite.S_LM)
    ?(renditions = [||]) () =
  let engine = Engine.create () in
  let rng = Rng.create 2 in
  let network = Network.create engine rng in
  let fast = { Netsim.Link.default with rate_bps = infinity; propagation_ns = 1_000 } in
  Network.add_host network ~ip:sfu_ip ~uplink:fast ~downlink:fast ();
  Network.add_host network ~ip:sender_addr.Addr.ip ~uplink:fast ~downlink:fast ();
  Network.add_host network ~ip:receiver_addr.Addr.ip ~uplink:fast ~downlink:fast ();
  let dp = Dp.create engine network ~ip:sfu_ip ~mode () in
  let received = ref [] and at_sender = ref [] and cpu = ref [] in
  (* pooled fast-path payloads are recycled (and, in Paranoid, poisoned)
     once a delivery handler returns — retaining a datagram requires
     detaching its payload with a copy, per the Dgram ownership contract *)
  let keep d =
    { d with Dgram.payload = Bytes.copy d.Dgram.payload; pool = None }
  in
  Network.bind network receiver_addr (fun d -> received := keep d :: !received);
  Network.bind network sender_addr (fun d -> at_sender := keep d :: !at_sender);
  Dp.set_cpu_sink dp (fun d -> cpu := d :: !cpu);
  let meeting =
    Scallop.Trees.register_meeting (Dp.trees dp) Scallop.Trees.Nra
      ~participants:[ (1, 101); (2, 102) ]
      ~senders:[ 1 ]
  in
  Dp.register_uplink dp ~port:uplink_port ~sender:1 ~meeting ~video_ssrc:77 ~audio_ssrc:78
    ~renditions;
  let simulcast = if renditions = [||] then None else Some renditions in
  Dp.register_leg ?simulcast dp ~receiver:2 ~video_ssrc:77 ~audio_ssrc:78
    ~dst:receiver_addr ~src_port:leg_port ~uplink_port ~rewrite;
  { engine; network; dp; received; at_sender; cpu }

let media_packet ?(ssrc = 77) ~seq ~frame ~template () =
  let dd =
    {
      Dd.start_of_frame = true;
      end_of_frame = true;
      template_id = template;
      frame_number = frame;
      structure = None;
    }
  in
  Packet.make
    ~extensions:[ { Packet.id = Dd.extension_id; data = Dd.serialize dd } ]
    ~payload_type:96 ~sequence:seq ~timestamp:(frame * 3000) ~ssrc (Bytes.create 100)

let send_media w pkt =
  Network.send w.network
    (Dgram.v ~src:sender_addr ~dst:(Addr.v sfu_ip uplink_port) (Packet.serialize pkt));
  Engine.run w.engine

let send_feedback w packets =
  Network.send w.network
    (Dgram.v ~src:receiver_addr ~dst:(Addr.v sfu_ip leg_port)
       (Rtcp.serialize_compound packets));
  Engine.run w.engine

let received_rtp w =
  List.rev_map (fun (d : Dgram.t) -> Packet.parse d.payload) !(w.received)

(* --- media forwarding ------------------------------------------------------ *)

let forwards_and_readdresses () =
  let w = setup () in
  send_media w (media_packet ~seq:100 ~frame:0 ~template:1 ());
  match !(w.received) with
  | [ d ] ->
      Alcotest.(check bool) "true-proxy source" true (Addr.equal d.src (Addr.v sfu_ip leg_port));
      Alcotest.(check bool) "unicast destination" true (Addr.equal d.dst receiver_addr);
      Alcotest.(check int) "payload intact" 100
        (Bytes.length (Packet.parse d.payload).Packet.payload)
  | l -> Alcotest.failf "expected 1 delivery, got %d" (List.length l)

let counts_classification () =
  let w = setup () in
  send_media w (media_packet ~seq:1 ~frame:0 ~template:1 ());
  send_media w (media_packet ~ssrc:78 ~seq:2 ~frame:0 ~template:0 ());
  let c = Dp.ingress_counters w.dp in
  Alcotest.(check int) "video" 1 c.rtp_video_pkts;
  Alcotest.(check int) "audio" 1 c.rtp_audio_pkts

let keyframe_structure_to_cpu () =
  let w = setup () in
  let dd =
    {
      Dd.start_of_frame = true;
      end_of_frame = true;
      template_id = 0;
      frame_number = 0;
      structure = Some Dd.l1t3_structure;
    }
  in
  let pkt =
    Packet.make
      ~extensions:[ { Packet.id = Dd.extension_id; data = Dd.serialize dd } ]
      ~payload_type:96 ~sequence:9 ~timestamp:0 ~ssrc:77 (Bytes.create 50)
  in
  send_media w pkt;
  let c = Dp.ingress_counters w.dp in
  Alcotest.(check int) "counted as AV1 DS" 1 c.rtp_av1_ds_pkts;
  Alcotest.(check int) "copied to cpu" 1 (List.length !(w.cpu));
  Alcotest.(check int) "still forwarded" 1 (List.length !(w.received))

let layer_suppression_and_rewrite () =
  let w = setup () in
  Dp.set_leg_target w.dp ~receiver:2 ~video_ssrc:77 Dd.DT_15fps;
  (* frames 0 (T0, kept), 1 (T2, suppressed at egress), 2 (T1, kept) *)
  send_media w (media_packet ~seq:10 ~frame:0 ~template:1 ());
  send_media w (media_packet ~seq:11 ~frame:1 ~template:3 ());
  send_media w (media_packet ~seq:12 ~frame:2 ~template:2 ());
  let seqs = List.map (fun p -> p.Packet.sequence) (received_rtp w) in
  Alcotest.(check (list int)) "gap masked" [ 10; 11 ] seqs;
  Alcotest.(check int) "suppression counted" 1 (Dp.replicas_suppressed w.dp)

let remb_gating () =
  let w = setup () in
  (* learn the sender's feedback address *)
  send_media w (media_packet ~seq:1 ~frame:0 ~template:1 ());
  let remb = Rtcp.Remb { sender_ssrc = 0; bitrate_bps = 1_000_000; ssrcs = [ 77 ] } in
  send_feedback w [ remb ];
  Alcotest.(check int) "blocked before selection" 0 (List.length !(w.at_sender));
  Dp.set_remb_forwarding w.dp ~leg_port true;
  send_feedback w [ remb ];
  Alcotest.(check int) "forwarded after selection" 1 (List.length !(w.at_sender));
  (* every feedback packet is copied to the agent regardless *)
  Alcotest.(check int) "cpu copies" 2 (List.length !(w.cpu))

let pli_always_forwarded () =
  let w = setup () in
  send_media w (media_packet ~seq:1 ~frame:0 ~template:1 ());
  send_feedback w [ Rtcp.Pli { sender_ssrc = 0; media_ssrc = 77 } ];
  Alcotest.(check int) "pli through" 1 (List.length !(w.at_sender))

let nack_translated_by_offset () =
  let w = setup () in
  Dp.set_leg_target w.dp ~receiver:2 ~video_ssrc:77 Dd.DT_15fps;
  (* frame 1 (T2) carries seqs 11-12 and is suppressed: offset becomes 2 *)
  send_media w (media_packet ~seq:10 ~frame:0 ~template:1 ());
  send_media w (media_packet ~seq:13 ~frame:2 ~template:2 ());
  send_media w (media_packet ~seq:14 ~frame:4 ~template:1 ());
  let seqs = List.map (fun p -> p.Packet.sequence) (received_rtp w) in
  Alcotest.(check (list int)) "rewritten continuous" [ 10; 11; 12 ] seqs;
  (* the receiver NACKs *rewritten* seq 11; the sender must be asked for
     the original 13 *)
  send_feedback w [ Rtcp.Nack { sender_ssrc = 0; media_ssrc = 77; lost = [ 11 ] } ];
  match !(w.at_sender) with
  | [ d ] -> (
      match Rtcp.parse_compound d.payload with
      | [ Rtcp.Nack { lost; _ } ] -> Alcotest.(check (list int)) "translated" [ 13 ] lost
      | _ -> Alcotest.fail "expected one NACK upstream")
  | l -> Alcotest.failf "expected upstream NACK, got %d dgrams" (List.length l)

let stun_to_cpu_only () =
  let w = setup () in
  let req =
    Rtp.Stun.binding_request ~transaction_id:(Bytes.make 12 'x') ()
  in
  Network.send w.network
    (Dgram.v ~src:sender_addr ~dst:(Addr.v sfu_ip uplink_port) (Rtp.Stun.serialize req));
  Engine.run w.engine;
  Alcotest.(check int) "not forwarded" 0 (List.length !(w.received));
  Alcotest.(check int) "to cpu" 1 (List.length !(w.cpu));
  Alcotest.(check int) "counted" 1 (Dp.ingress_counters w.dp).stun_pkts

let unknown_traffic_counted () =
  let w = setup () in
  Network.send w.network
    (Dgram.v ~src:sender_addr ~dst:(Addr.v sfu_ip 999) (Bytes.of_string "\xFF\xFF\xFF\xFF"));
  Engine.run w.engine;
  Alcotest.(check int) "other" 1 (Dp.ingress_counters w.dp).other_pkts

let unregister_leg_stops_media () =
  let w = setup () in
  send_media w (media_packet ~seq:1 ~frame:0 ~template:1 ());
  Dp.unregister_leg w.dp ~receiver:2 ~video_ssrc:77;
  send_media w (media_packet ~seq:2 ~frame:0 ~template:1 ());
  Alcotest.(check int) "no second delivery" 1 (List.length !(w.received))

let stream_index_reuse () =
  let w = setup () in
  (* churn legs well past the table capacity would allow without reuse *)
  for i = 0 to 99 do
    Dp.register_leg w.dp ~receiver:(1000 + i) ~video_ssrc:(2000 + i) ~audio_ssrc:(3000 + i)
      ~dst:receiver_addr ~src_port:(50_000 + i) ~uplink_port
      ~rewrite:(Some Scallop.Seq_rewrite.S_LM);
    Dp.unregister_leg w.dp ~receiver:(1000 + i) ~video_ssrc:(2000 + i)
  done;
  (* if indices were leaked this would keep growing; reuse keeps it tiny *)
  Alcotest.(check bool) "indices recycled" true true

(* --- fast path ≡ slow path -------------------------------------------------- *)

(* Randomized ingress: video/audio SSRCs, all L1T3 templates, marker and
   frame-boundary flags, key-frame structures, extra one-/two-byte
   extension elements, missing descriptors, and RTP padding (a
   non-canonical encoding the fast path must route to the slow path). *)
type ev = {
  e_audio : bool;
  e_rendition : int;  (** which simulcast rendition (ignored w/o simulcast) *)
  e_seq : int;
  e_frame : int;
  e_template : int;  (** -1 = no descriptor *)
  e_marker : bool;
  e_sof : bool;
  e_eof : bool;
  e_structure : bool;
  e_extra : int;  (** 0 none, 1 extra one-byte element, 2 extra two-byte element *)
  e_payload : int;
  e_padding : int;  (** 0 none, else pad count (sets the padding bit) *)
}

let gen_ev =
  QCheck.Gen.(
    map
      (fun ((audio, rendition, seq, frame), (template, marker, sof, eof), (structure, extra, payload, padding)) ->
        {
          e_audio = audio;
          e_rendition = rendition;
          e_seq = seq;
          e_frame = frame;
          e_template = template;
          e_marker = marker;
          e_sof = sof;
          e_eof = eof;
          e_structure = structure;
          e_extra = extra;
          e_payload = payload;
          e_padding = padding;
        })
      (triple
         (quad (frequency [ (4, return false); (1, return true) ]) (int_bound 1)
            (int_bound 0xFFFF) (int_bound 200))
         (quad (int_range (-1) 4) bool bool bool)
         (quad (frequency [ (6, return false); (1, return true) ])
            (frequency [ (4, return 0); (1, return 1); (1, return 2) ])
            (int_range 1 60)
            (frequency [ (6, return 0); (1, return 1); (1, return 3) ]))))

let raw_of_ev ~video_ssrcs ev =
  let ssrc =
    if ev.e_audio then 78 else video_ssrcs.(ev.e_rendition mod Array.length video_ssrcs)
  in
  let dd_ext =
    if ev.e_audio || ev.e_template < 0 then []
    else
      let dd =
        {
          Dd.start_of_frame = ev.e_sof;
          end_of_frame = ev.e_eof;
          template_id = ev.e_template;
          frame_number = ev.e_frame;
          structure = (if ev.e_structure then Some Dd.l1t3_structure else None);
        }
      in
      [ { Packet.id = Dd.extension_id; data = Dd.serialize dd } ]
  in
  let extra =
    match ev.e_extra with
    | 1 -> [ { Packet.id = 5; data = Bytes.make 3 '\xAB' } ]
    | 2 -> [ { Packet.id = 20; data = Bytes.make 2 '\xCD' } ]  (* forces two-byte profile *)
    | _ -> []
  in
  let pkt =
    Packet.make ~marker:ev.e_marker ~extensions:(dd_ext @ extra) ~payload_type:96
      ~sequence:ev.e_seq ~timestamp:(ev.e_frame * 3000) ~ssrc
      (Bytes.make ev.e_payload 'p')
  in
  let buf = Packet.serialize pkt in
  if ev.e_padding = 0 then buf
  else begin
    let n = ev.e_padding in
    let out = Bytes.make (Bytes.length buf + n) '\000' in
    Bytes.blit buf 0 out 0 (Bytes.length buf);
    Bytes.set out (Bytes.length out - 1) (Char.chr n);
    Bytes.set out 0 (Char.chr (Char.code (Bytes.get buf 0) lor 0x20));
    out
  end

(* Run one randomized stream through a world in the given mode; return the
   byte-exact egress as seen by the receiver. *)
let egress_of_stream ~mode ~simulcast evs =
  let renditions = if simulcast then [| 77; 177 |] else [||] in
  let rewrite = if simulcast then None else Some Scallop.Seq_rewrite.S_LR in
  let w = setup ~mode ~rewrite ~renditions () in
  if not simulcast then Dp.set_leg_target w.dp ~receiver:2 ~video_ssrc:77 Dd.DT_15fps;
  List.iteri
    (fun i ev ->
      (* exercise splice rebasing by toggling the requested rendition *)
      if simulcast && i mod 7 = 3 then
        Dp.set_leg_rendition w.dp ~leg_port ((i / 7) mod 2);
      Network.send w.network
        (Dgram.v ~src:sender_addr ~dst:(Addr.v sfu_ip uplink_port)
           (raw_of_ev ~video_ssrcs:(if simulcast then renditions else [| 77 |]) ev));
      Engine.run w.engine)
    evs;
  let stats = Dp.fastpath_stats w.dp in
  Alcotest.(check int) "no paranoid mismatches" 0 stats.Dp.fp_paranoid_mismatches;
  List.rev_map (fun (d : Dgram.t) -> Bytes.to_string d.Dgram.payload) !(w.received)

let prop_fast_slow_identical =
  QCheck.Test.make ~count:60 ~name:"fast and slow egress byte-identical (S-LR leg)"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 40) gen_ev))
    (fun evs ->
      let fast = egress_of_stream ~mode:Dp.Fast ~simulcast:false evs in
      let slow = egress_of_stream ~mode:Dp.Slow ~simulcast:false evs in
      let paranoid = egress_of_stream ~mode:Dp.Paranoid ~simulcast:false evs in
      fast = slow && paranoid = slow)

let prop_fast_slow_identical_simulcast =
  QCheck.Test.make ~count:60 ~name:"fast and slow egress byte-identical (simulcast splice)"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 40) gen_ev))
    (fun evs ->
      let fast = egress_of_stream ~mode:Dp.Fast ~simulcast:true evs in
      let slow = egress_of_stream ~mode:Dp.Slow ~simulcast:true evs in
      let paranoid = egress_of_stream ~mode:Dp.Paranoid ~simulcast:true evs in
      fast = slow && paranoid = slow)

let paranoid_checks_counted () =
  let w = setup () in
  send_media w (media_packet ~seq:100 ~frame:0 ~template:1 ());
  send_media w (media_packet ~seq:101 ~frame:1 ~template:3 ());
  let s = Dp.fastpath_stats w.dp in
  Alcotest.(check bool) "checks ran" true (s.Dp.fp_paranoid_checks > 0);
  Alcotest.(check int) "no mismatches" 0 s.Dp.fp_paranoid_mismatches;
  Alcotest.(check bool) "fast ingress counted" true (s.Dp.fp_fast_pkts >= 2)

let replica_copies_counted () =
  let w = setup ~mode:Dp.Fast () in
  send_media w (media_packet ~seq:1 ~frame:0 ~template:1 ());
  send_media w (media_packet ~seq:2 ~frame:4 ~template:1 ());
  let s = Dp.fastpath_stats w.dp in
  Alcotest.(check int) "replica copies counted" 2 s.Dp.fp_replica_copies;
  Alcotest.(check int) "fast ingress" 2 s.Dp.fp_fast_pkts;
  Alcotest.(check int) "no slow ingress" 0 s.Dp.fp_slow_pkts

(* A 3-receiver meeting goes through the PRE replicate path: the second
   packet with identical metadata must be a cache hit, and a tree
   mutation must invalidate before it can serve a stale fan-out. *)
let pre_cache_hit_miss_invalidate () =
  let w = setup ~mode:Dp.Fast () in
  let meeting =
    Scallop.Trees.register_meeting (Dp.trees w.dp) Scallop.Trees.Nra
      ~participants:[ (11, 111); (12, 112); (13, 113) ]
      ~senders:[ 11 ]
  in
  let up = 43_000 in
  Dp.register_uplink w.dp ~port:up ~sender:11 ~meeting ~video_ssrc:577 ~audio_ssrc:578;
  Dp.register_leg w.dp ~receiver:12 ~video_ssrc:577 ~audio_ssrc:578 ~dst:receiver_addr
    ~src_port:44_000 ~uplink_port:up ~rewrite:None;
  Dp.register_leg w.dp ~receiver:13 ~video_ssrc:577 ~audio_ssrc:578 ~dst:receiver_addr
    ~src_port:44_001 ~uplink_port:up ~rewrite:None;
  let send seq =
    Network.send w.network
      (Dgram.v ~src:sender_addr ~dst:(Addr.v sfu_ip up)
         (Packet.serialize (media_packet ~ssrc:577 ~seq ~frame:0 ~template:1 ())));
    Engine.run w.engine
  in
  send 1;
  let s1 = Dp.fastpath_stats w.dp in
  Alcotest.(check bool) "first packet misses" true (s1.Dp.fp_cache_misses >= 1);
  send 2;
  let s2 = Dp.fastpath_stats w.dp in
  Alcotest.(check bool) "second packet hits" true (s2.Dp.fp_cache_hits > s1.Dp.fp_cache_hits);
  (* mutate the tree: the resident entry must be flushed, not served *)
  Scallop.Trees.remove_participant (Dp.trees w.dp) meeting 13;
  let s3 = Dp.fastpath_stats w.dp in
  Alcotest.(check bool) "mutation invalidates" true
    (s3.Dp.fp_cache_invalidations > s2.Dp.fp_cache_invalidations);
  Dp.unregister_leg w.dp ~receiver:13 ~video_ssrc:577;
  let before = List.length !(w.received) in
  send 3;
  let after = List.length !(w.received) in
  Alcotest.(check int) "only the remaining receiver is served" 1 (after - before)

(* --- allocation & buffer pool ----------------------------------------------- *)

(* Suppressed replicas short-circuit before materialization: no replica
   buffer is checked out and no copy is counted for them. *)
let suppress_short_circuits () =
  let w = setup ~mode:Dp.Fast () in
  Dp.set_leg_target w.dp ~receiver:2 ~video_ssrc:77 Dd.DT_15fps;
  (* frames 0 (T0, kept), 1 (T2, suppressed), 2 (T1, kept) *)
  send_media w (media_packet ~seq:10 ~frame:0 ~template:1 ());
  send_media w (media_packet ~seq:11 ~frame:1 ~template:3 ());
  send_media w (media_packet ~seq:12 ~frame:2 ~template:2 ());
  let s = Dp.fastpath_stats w.dp in
  Alcotest.(check int) "one replica suppressed" 1 (Dp.replicas_suppressed w.dp);
  Alcotest.(check int) "copies only for forwarded replicas" 2 s.Dp.fp_replica_copies;
  Alcotest.(check int) "pool served only forwarded replicas" 2
    (s.Dp.fp_pool_recycled + s.Dp.fp_pool_fresh)

(* Every pooled replica must come back: once the engine drains, whoever
   terminated each datagram (the delivery handler returning, here) has
   released its buffer exactly once. *)
let pool_drains_to_zero () =
  let w = setup ~mode:Dp.Fast () in
  for i = 1 to 20 do
    send_media w (media_packet ~seq:i ~frame:i ~template:((i mod 4) + 1) ())
  done;
  let s = Dp.pool_stats w.dp in
  Alcotest.(check int) "all buffers returned" 0 s.Scallop_util.Bufpool.live;
  Alcotest.(check bool) "pool actually used" true
    (s.Scallop_util.Bufpool.high_water >= 1);
  Alcotest.(check bool) "steady state recycles" true
    (s.Scallop_util.Bufpool.recycled > 0)

(* Steady-state allocation regression gate: the canonical 30-receiver Fast
   fan-out must stay under the pinned budget. This is the only check of
   the budget; allocation grows with run length, so it measures 2,000
   packets after warm-up. The receiver IP is unhosted, so the network
   terminates every replica (and must release its pooled buffer there). *)
let alloc_budget_regression () =
  let engine = Engine.create () in
  let rng = Rng.create 7 in
  let network = Network.create engine rng in
  let fast = { Netsim.Link.default with rate_bps = infinity; propagation_ns = 100 } in
  Network.add_host network ~ip:sfu_ip ~uplink:fast ~downlink:fast ();
  Network.add_host network ~ip:sender_addr.Addr.ip ~uplink:fast ~downlink:fast ();
  let dp = Dp.create engine network ~ip:sfu_ip ~mode:Dp.Fast () in
  let receivers = 30 in
  let participants =
    (1, uplink_port) :: List.init receivers (fun i -> (2 + i, 50_000 + i))
  in
  let meeting =
    Scallop.Trees.register_meeting (Dp.trees dp) Scallop.Trees.Nra ~participants
      ~senders:[ 1 ]
  in
  Dp.register_uplink dp ~port:uplink_port ~sender:1 ~meeting ~video_ssrc:77
    ~audio_ssrc:78;
  let recv_ip = Addr.ip_of_string "10.0.2.1" in
  List.iteri
    (fun i (pid, port) ->
      Dp.register_leg dp ~receiver:pid ~video_ssrc:77 ~audio_ssrc:78
        ~dst:(Addr.v recv_ip (6000 + i)) ~src_port:port ~uplink_port ~rewrite:None)
    (List.tl participants);
  let payload = Bytes.make 1200 'v' in
  let raw seq frame =
    let dd =
      {
        Dd.start_of_frame = true;
        end_of_frame = true;
        template_id = (frame mod 4) + 1;
        frame_number = frame land 0xFFFF;
        structure = None;
      }
    in
    Packet.serialize
      (Packet.make
         ~extensions:[ { Packet.id = Dd.extension_id; data = Dd.serialize dd } ]
         ~payload_type:96 ~sequence:(seq land 0xFFFF) ~timestamp:(frame * 3000)
         ~ssrc:77 payload)
  in
  let one buf =
    Network.send network (Dgram.v ~src:sender_addr ~dst:(Addr.v sfu_ip uplink_port) buf);
    Engine.run engine
  in
  (* warm-up: fill the PRE cache, the replica pool and the batch free list *)
  Array.iter one (Array.init 100 (fun i -> raw (60_000 + i) (30_000 + (i / 2))));
  let packets = 2_000 in
  let stream = Array.init packets (fun i -> raw i (i / 2)) in
  let fresh0 = (Dp.pool_stats dp).Scallop_util.Bufpool.fresh in
  let a0 = Gc.allocated_bytes () in
  Array.iter one stream;
  let per_pkt = (Gc.allocated_bytes () -. a0) /. float_of_int packets in
  if per_pkt > float_of_int Dp.alloc_budget_bytes_per_packet then
    Alcotest.failf "fast path allocates %.0f B/packet (budget %d)" per_pkt
      Dp.alloc_budget_bytes_per_packet;
  let s = Dp.pool_stats dp in
  Alcotest.(check int) "no fresh checkouts in steady state" fresh0
    s.Scallop_util.Bufpool.fresh;
  Alcotest.(check int) "unhosted deliveries released every buffer" 0
    s.Scallop_util.Bufpool.live

let () =
  Alcotest.run "dataplane"
    [
      ( "media",
        [
          Alcotest.test_case "forwards and re-addresses" `Quick forwards_and_readdresses;
          Alcotest.test_case "classification" `Quick counts_classification;
          Alcotest.test_case "keyframe structure to cpu" `Quick keyframe_structure_to_cpu;
          Alcotest.test_case "layer suppression + rewrite" `Quick layer_suppression_and_rewrite;
          Alcotest.test_case "unregister leg" `Quick unregister_leg_stops_media;
          Alcotest.test_case "stream index reuse" `Quick stream_index_reuse;
        ] );
      ( "feedback",
        [
          Alcotest.test_case "remb gating" `Quick remb_gating;
          Alcotest.test_case "pli always forwarded" `Quick pli_always_forwarded;
          Alcotest.test_case "nack offset translation" `Quick nack_translated_by_offset;
        ] );
      ( "control",
        [
          Alcotest.test_case "stun to cpu" `Quick stun_to_cpu_only;
          Alcotest.test_case "unknown counted" `Quick unknown_traffic_counted;
        ] );
      ( "fastpath",
        Fixed_seed.to_alcotest prop_fast_slow_identical
        :: Fixed_seed.to_alcotest prop_fast_slow_identical_simulcast
        :: [
             Alcotest.test_case "paranoid checks counted" `Quick paranoid_checks_counted;
             Alcotest.test_case "replica copies counted" `Quick replica_copies_counted;
             Alcotest.test_case "pre cache hit/miss/invalidate" `Quick
               pre_cache_hit_miss_invalidate;
           ] );
      ( "alloc",
        [
          Alcotest.test_case "suppress short-circuits materialization" `Quick
            suppress_short_circuits;
          Alcotest.test_case "pool drains to zero" `Quick pool_drains_to_zero;
          Alcotest.test_case "alloc budget regression" `Quick
            alloc_budget_regression;
        ] );
    ]
