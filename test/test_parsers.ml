(* One fuzz harness over every wire-format parser: RPC, SDP, RTP (the
   record parser and the data plane's view), RTCP, STUN and the AV1
   dependency descriptor.

   Each parser gets mutants of a small seed corpus of real wire bytes,
   built with the format's own serializer: one to three edits, each a
   truncation, a bit flip, or a splice of a prefix onto the suffix of
   another entry. A parser may accept a mutant or raise
   [Wire.Parse_error]; any other exception fails the property. The two
   parsers the data plane runs beside a reference one must also agree
   with it on what they reject. *)

module Addr = Scallop_util.Addr
module Wire = Rtp.Wire
module Packet = Rtp.Packet
module Dd = Av1.Dd
module Rpc = Scallop.Rpc

(* --- seed corpus ------------------------------------------------------------ *)

let dd_key =
  {
    Dd.start_of_frame = true;
    end_of_frame = false;
    template_id = 0;
    frame_number = 4242;
    structure = Some Dd.l1t3_structure;
  }

let dd_delta =
  { Dd.start_of_frame = false; end_of_frame = true; template_id = 3; frame_number = 65535; structure = None }

let dd = List.map (fun d -> Bytes.to_string (Dd.serialize d)) [ dd_key; dd_delta ]

let rtp =
  let video d ~marker sequence =
    Packet.make ~marker
      ~extensions:[ { Packet.id = Dd.extension_id; data = Dd.serialize d } ]
      ~payload_type:96 ~sequence ~timestamp:90_000 ~ssrc:0x100007 (Bytes.make 40 'v')
  in
  List.map
    (fun p -> Bytes.to_string (Packet.serialize p))
    [
      video dd_key ~marker:false 1;
      video dd_delta ~marker:true 65535;
      Packet.make ~payload_type:111 ~sequence:7 ~timestamp:960 ~ssrc:0x200007 (Bytes.make 20 'a');
      (* contributing sources, and an element too long for the one-byte
         extension profile *)
      Packet.make ~csrcs:[ 1; 2 ]
        ~extensions:[ { Packet.id = 15; data = Bytes.make 20 'x' } ]
        ~payload_type:96 ~sequence:9 ~timestamp:1 ~ssrc:3 (Bytes.make 8 'p');
    ]

let rtcp =
  let block =
    {
      Rtp.Rtcp.ssrc = 0x100007;
      fraction_lost = 12;
      cumulative_lost = 3;
      highest_seq = 70_000;
      jitter = 30;
      last_sr = 0x1234;
      dlsr = 655;
    }
  in
  let info = { Rtp.Rtcp.ntp_sec = 3; ntp_frac = 4; rtp_ts = 90_000; packet_count = 10; octet_count = 1000 } in
  List.map
    (fun ps -> Bytes.to_string (Rtp.Rtcp.serialize_compound ps))
    [
      [
        Rtp.Rtcp.Sender_report { ssrc = 0x100007; info; reports = [ block ] };
        Rtp.Rtcp.Sdes [ (0x100007, [ Rtp.Rtcp.Cname "scallop" ]) ];
      ];
      [
        Rtp.Rtcp.Receiver_report { ssrc = 5; reports = [ block ] };
        Rtp.Rtcp.Nack { sender_ssrc = 5; media_ssrc = 0x100007; lost = [ 10; 11; 30 ] };
        Rtp.Rtcp.Pli { sender_ssrc = 5; media_ssrc = 0x100007 };
        Rtp.Rtcp.Remb { sender_ssrc = 5; bitrate_bps = 2_500_000; ssrcs = [ 0x100007 ] };
      ];
      [
        Rtp.Rtcp.Twcc
          { sender_ssrc = 5; media_ssrc = 7; base_seq = 100; fb_count = 3; deltas = [ 1; 4; 0; 9 ] };
        Rtp.Rtcp.Bye { ssrcs = [ 5 ]; reason = Some "done" };
      ];
    ]

let stun =
  let transaction_id = Bytes.of_string "0123456789ab" in
  List.map
    (fun m -> Bytes.to_string (Rtp.Stun.serialize m))
    [
      Rtp.Stun.binding_request ~username:"uf0a1b2c:sfuuf" ~priority:2130706431 ~transaction_id ();
      Rtp.Stun.binding_success ~transaction_id ~mapped_ip:(Addr.ip_of_string "10.0.1.3")
        ~mapped_port:5002;
    ]

let sdp =
  let client = Addr.of_string "10.0.1.3:5002" and sfu = Addr.of_string "10.0.0.1:40000" in
  let offer =
    {
      Sdp.session_id = 482_913_506;
      origin_addr = Addr.v client.Addr.ip 0;
      ice_ufrag = "uf0a1b2c";
      ice_pwd = "pw00ffee01";
      medias =
        [
          Sdp.make_media ~direction:Sdp.Sendonly
            ~extmaps:[ (1, "urn:av1:dependency-descriptor") ]
            ~svc_mode:(Some "L1T3") ~kind:Sdp.Video ~mid:"0" ~payload_type:96 ~codec:"AV1"
            ~clock_rate:90000 ~ssrc:0x100007 ~cname:"scallop"
            ~candidates:[ Sdp.host_candidate client ] ();
          Sdp.make_media ~direction:Sdp.Sendonly ~kind:Sdp.Audio ~mid:"1" ~payload_type:111
            ~codec:"opus" ~clock_rate:48000 ~ssrc:0x200007 ~cname:"scallop"
            ~candidates:[ Sdp.host_candidate client ] ();
        ];
    }
  in
  let answer =
    Sdp.answer ~offer:(Sdp.rewrite_candidates offer sfu) ~session_id:7 ~origin:sfu
      ~ice_ufrag:"sfuuf" ~ice_pwd:"sfupw"
      ~media_for:(fun m -> if m.Sdp.kind = Sdp.Audio then None else Some m)
  in
  List.map Sdp.to_string [ offer; answer ]

let rpc =
  let join =
    Rpc.Batch
      [
        Rpc.Register_participant { meeting = 3; participant = 7; egress_port = 140; sends = true };
        Rpc.Register_uplink
          {
            meeting = 3;
            sender = 7;
            port = 130;
            video_ssrc = 0x100007;
            audio_ssrc = 0x200007;
            full_bitrate = 2_500_000;
            renditions = [| (0x100007, 2_500_000); (0x100107, 600_000) |];
          };
        Rpc.Register_leg
          {
            meeting = 3;
            sender = 7;
            uplink_port = Some 130;
            receiver = 8;
            leg_port = 150;
            dst = Addr.of_string "10.0.1.4:5002";
            adaptive = true;
          };
        Rpc.Set_pair_target { meeting = 3; sender = 7; receiver = 8; target = Dd.DT_15fps };
      ]
  in
  List.map
    (fun m -> Bytes.to_string (Rpc.encode m))
    [
      Rpc.Request { seq = 41; request = Rpc.Fenced { fence = 2; op = join } };
      Rpc.Reply
        {
          seq = 41;
          reply =
            Rpc.Batch_reply [ Rpc.Ack; Rpc.Error " no  such meeting "; Rpc.Stale_fence { fence = 3 } ];
        };
      Rpc.Request { seq = 42; request = Rpc.Fenced { fence = 2; op = Rpc.Ping } };
      Rpc.Reply { seq = 42; reply = Rpc.Pong { epoch = 1 } };
      Rpc.Request { seq = 43; request = Rpc.New_meeting { two_party = false } };
      Rpc.Reply { seq = 43; reply = Rpc.Meeting_created { meeting = 9 } };
      Rpc.Request
        {
          seq = 44;
          request = Rpc.Set_pair_target { meeting = 3; sender = 7; receiver = 8; target = Dd.DT_30fps };
        };
    ]

(* --- mutants ------------------------------------------------------------------ *)

let mutant corpus =
  let open QCheck.Gen in
  let edit s =
    let n = String.length s in
    let flip i bit =
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 lsl bit)));
      Bytes.to_string b
    in
    let splice other i j = String.sub s 0 i ^ String.sub other j (String.length other - j) in
    oneof
      [
        map (String.sub s 0) (int_bound n);
        (if n = 0 then return s else map2 flip (int_bound (n - 1)) (int_bound 7));
        ( oneofl corpus >>= fun other ->
          map2 (splice other) (int_bound n) (int_bound (String.length other)) );
      ]
  in
  let rec edits k s = if k = 0 then return s else edit s >>= edits (k - 1) in
  pair (oneofl corpus) (int_range 1 3) >>= fun (s, k) -> edits k s

let arbitrary gen = QCheck.make ~print:(Printf.sprintf "%S") gen
let rejects parse x = match parse x with _ -> false | exception Wire.Parse_error _ -> true

let only_parse_error name gen parse =
  QCheck.Test.make ~count:2000 ~name (arbitrary gen) (fun s ->
      ignore (rejects parse s);
      true)

let mutated name corpus parse = only_parse_error ("mutated " ^ name) (mutant corpus) parse
let of_bytes parse s = parse (Bytes.of_string s)

(* Random descriptions, truncated and with up to six characters replaced
   by ones that SDP syntax gives meaning to. *)
let mangled_sdp =
  let open QCheck.Gen in
  let alphabet = List.of_seq (String.to_seq " \t\r\n=:/.-0123456789amovcstIPNUDRTudpyphx") in
  let edit = pair nat (oneofl alphabet) in
  pair Sdp_gen.sdp (pair (float_bound_inclusive 1.0) (list_size (int_range 0 6) edit))
  |> map (fun (x, (cut, edits)) ->
         let text = Bytes.of_string (Sdp.to_string x) in
         let n = Bytes.length text in
         List.iter (fun (i, c) -> if n > 0 then Bytes.set text (i mod n) c) edits;
         Bytes.sub_string text 0 (int_of_float (cut *. float_of_int n)))

(* --- parity with the reference parser --------------------------------------- *)

(* read out of a larger buffer, as the data plane reads it out of a
   packet; [read_fields] must not raise at all *)
let dd_parity =
  QCheck.Test.make ~count:1000 ~name:"Dd.read_fields None iff parse raises"
    (arbitrary (mutant dd))
    (fun s ->
      let buf = Bytes.of_string ("hdr" ^ s ^ "pad") in
      Dd.read_fields buf ~off:3 ~len:(String.length s) = None
      = rejects Dd.parse (Bytes.of_string s))

let view_parity =
  QCheck.Test.make ~count:1000 ~name:"View rejects iff Packet.parse does"
    (arbitrary (mutant rtp))
    (fun s ->
      let b = Bytes.of_string s in
      rejects (Packet.View.of_bytes ~ext_id:Dd.extension_id) b = rejects Packet.parse b)

let () =
  Alcotest.run "parsers"
    [
      ( "escapes",
        List.map Fixed_seed.to_alcotest
          [
            mutated "Rpc.decode" rpc (of_bytes Rpc.decode);
            mutated "Sdp.of_string" sdp Sdp.of_string;
            only_parse_error "malformed SDP raises only Parse_error" mangled_sdp Sdp.of_string;
            mutated "Packet.parse" rtp (of_bytes Packet.parse);
            mutated "View.of_bytes" rtp (of_bytes (Packet.View.of_bytes ~ext_id:Dd.extension_id));
            mutated "Rtcp.parse_compound" rtcp (of_bytes Rtp.Rtcp.parse_compound);
            mutated "Stun.parse" stun (of_bytes Rtp.Stun.parse);
            mutated "Dd.parse" dd (of_bytes Dd.parse);
          ] );
      ("parity", List.map Fixed_seed.to_alcotest [ dd_parity; view_parity ]);
    ]
