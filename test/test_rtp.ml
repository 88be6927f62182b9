(* Byte-exact wire-format tests: RTP, RTCP, STUN, demux. *)

module Wire = Rtp.Wire
module Packet = Rtp.Packet
module Rtcp = Rtp.Rtcp
module Stun = Rtp.Stun
module Demux = Rtp.Demux

(* --- Wire reader/writer --------------------------------------------------- *)

let wire_roundtrip () =
  let w = Wire.Writer.create () in
  Wire.Writer.u8 w 0xAB;
  Wire.Writer.u16 w 0x1234;
  Wire.Writer.u24 w 0x56789A;
  Wire.Writer.u32_int w 0xDEADBEEF;
  let r = Wire.Reader.of_bytes (Wire.Writer.contents w) in
  Alcotest.(check int) "u8" 0xAB (Wire.Reader.u8 r);
  Alcotest.(check int) "u16" 0x1234 (Wire.Reader.u16 r);
  Alcotest.(check int) "u24" 0x56789A (Wire.Reader.u24 r);
  Alcotest.(check int) "u32" 0xDEADBEEF (Wire.Reader.u32_int r);
  Alcotest.(check bool) "eof" true (Wire.Reader.eof r)

let wire_truncation () =
  let r = Wire.Reader.of_bytes (Bytes.create 1) in
  Alcotest.(check bool) "truncated u16 raises" true
    (try
       ignore (Wire.Reader.u16 r);
       false
     with Wire.Parse_error _ -> true)

let wire_peek () =
  let r = Wire.Reader.of_bytes (Bytes.of_string "\x42") in
  Alcotest.(check int) "peek" 0x42 (Wire.Reader.peek_u8 r);
  Alcotest.(check int) "peek does not consume" 0x42 (Wire.Reader.u8 r)

let wire_masking () =
  let w = Wire.Writer.create () in
  Wire.Writer.u8 w 0x1FF;
  let r = Wire.Reader.of_bytes (Wire.Writer.contents w) in
  Alcotest.(check int) "u8 masked" 0xFF (Wire.Reader.u8 r)

(* The text cursor's decimals and dotted quads: the whole [int] range and
   nothing past it, [Parse_error] for the rest. *)
let text_numbers () =
  let read f s =
    let c = Rtp.Text.of_string s in
    ignore (Rtp.Text.next c ' ');
    match f c with v -> Some v | exception Wire.Parse_error _ -> None
  in
  List.iter
    (fun (s, v) -> Alcotest.(check (option int)) ("int " ^ s) v (read Rtp.Text.int s))
    [
      ("0", Some 0); ("-0", Some 0); ("42", Some 42); ("-7", Some (-7));
      (string_of_int max_int, Some max_int); (string_of_int min_int, Some min_int);
      ("4611686018427387904", None); ("-4611686018427387905", None);
      ("", None); ("-", None); ("+1", None); ("1x", None); ("0x10", None);
    ];
  List.iter
    (fun (s, v) -> Alcotest.(check (option int)) ("ip " ^ s) v (read Rtp.Text.ip s))
    [
      ("10.0.1.3", Some 0x0A000103); ("255.255.255.255", Some 0xFFFFFFFF); ("0.0.0.0", Some 0);
      ("256.0.0.1", None); ("1.2.3", None); ("1.2.3.4.5", None); ("1..2.3", None);
      ("1.2.3.0004", None); ("1.2.3.", None); ("-1.2.3.4", None); ("", None);
    ]

(* --- RTP packets ------------------------------------------------------------ *)

let mk_packet ?marker ?extensions ?(payload = "hello media") () =
  Packet.make ?marker ?extensions ~payload_type:96 ~sequence:12345 ~timestamp:0xABCDE
    ~ssrc:0xCAFE (Bytes.of_string payload)

let rtp_basic_roundtrip () =
  let p = mk_packet ~marker:true () in
  let p' = Packet.parse (Packet.serialize p) in
  Alcotest.(check bool) "roundtrip" true (Packet.equal p p')

let rtp_extension_roundtrip () =
  let extensions = [ { Packet.id = 1; data = Bytes.of_string "\x01\x02\x03" } ] in
  let p = mk_packet ~extensions () in
  let p' = Packet.parse (Packet.serialize p) in
  Alcotest.(check bool) "ext roundtrip" true (Packet.equal p p');
  Alcotest.(check bool) "ext found" true (Packet.find_extension p' 1 <> None)

let rtp_two_byte_profile () =
  (* an element longer than 16 bytes forces the two-byte header profile *)
  let extensions = [ { Packet.id = 5; data = Bytes.create 20 } ] in
  let p = mk_packet ~extensions () in
  let p' = Packet.parse (Packet.serialize p) in
  Alcotest.(check bool) "two-byte roundtrip" true (Packet.equal p p')

let rtp_multiple_extensions () =
  let extensions =
    [
      { Packet.id = 1; data = Bytes.of_string "abc" };
      { Packet.id = 2; data = Bytes.of_string "defgh" };
      { Packet.id = 14; data = Bytes.of_string "i" };
    ]
  in
  let p = mk_packet ~extensions () in
  Alcotest.(check bool) "multi ext" true (Packet.equal p (Packet.parse (Packet.serialize p)))

let rtp_empty_payload () =
  let p = mk_packet ~payload:"" () in
  Alcotest.(check bool) "empty payload" true (Packet.equal p (Packet.parse (Packet.serialize p)))

let rtp_wire_size_exact () =
  let p = mk_packet ~extensions:[ { Packet.id = 1; data = Bytes.of_string "abcd" } ] () in
  Alcotest.(check int) "wire_size = serialized length" (Bytes.length (Packet.serialize p))
    (Packet.wire_size p)

let rtp_bad_version () =
  let buf = Bytes.make 12 '\x00' in
  Alcotest.(check bool) "version 0 rejected" true
    (try
       ignore (Packet.parse buf);
       false
     with Wire.Parse_error _ -> true)

let rtp_with_sequence () =
  let p = mk_packet () in
  Alcotest.(check int) "rewritten" 99 (Packet.with_sequence p 99).Packet.sequence;
  Alcotest.(check int) "masked" 0 (Packet.with_sequence p 0x10000).Packet.sequence

(* --- sequence arithmetic ----------------------------------------------------- *)

let seq_arithmetic () =
  Alcotest.(check int) "succ wraps" 0 (Packet.seq_succ 0xFFFF);
  Alcotest.(check int) "add wraps" 4 (Packet.seq_add 0xFFFE 6);
  Alcotest.(check int) "sub simple" 5 (Packet.seq_sub 10 5);
  Alcotest.(check int) "sub wrap" 6 (Packet.seq_sub 2 0xFFFC);
  Alcotest.(check int) "sub negative" (-6) (Packet.seq_sub 0xFFFC 2);
  Alcotest.(check bool) "newer across wrap" true (Packet.seq_newer 3 0xFFFE);
  Alcotest.(check bool) "not newer" false (Packet.seq_newer 0xFFFE 3)

(* --- RTCP ---------------------------------------------------------------------- *)

let rtcp_roundtrip name packet =
  Alcotest.test_case name `Quick (fun () ->
      let p' = Rtcp.parse (Rtcp.serialize packet) in
      Alcotest.(check bool) name true (Rtcp.equal packet p'))

let report_block =
  {
    Rtcp.ssrc = 0x1111;
    fraction_lost = 12;
    cumulative_lost = 345;
    highest_seq = 67890;
    jitter = 42;
    last_sr = 0xAABB;
    dlsr = 0xCCDD;
  }

let sr =
  Rtcp.Sender_report
    {
      ssrc = 0xAA;
      info = { ntp_sec = 100; ntp_frac = 200; rtp_ts = 300; packet_count = 4; octet_count = 5 };
      reports = [ report_block ];
    }

let rr = Rtcp.Receiver_report { ssrc = 0xBB; reports = [ report_block; report_block ] }
let sdes = Rtcp.Sdes [ (0xCC, [ Rtcp.Cname "client-one" ]) ]
let bye = Rtcp.Bye { ssrcs = [ 1; 2; 3 ]; reason = Some "leaving" }
let pli = Rtcp.Pli { sender_ssrc = 1; media_ssrc = 2 }
let remb = Rtcp.Remb { sender_ssrc = 3; bitrate_bps = 2_500_000; ssrcs = [ 7; 8 ] }

let nack_simple = Rtcp.Nack { sender_ssrc = 1; media_ssrc = 2; lost = [ 100 ] }
let nack_bitmap = Rtcp.Nack { sender_ssrc = 1; media_ssrc = 2; lost = [ 100; 101; 105; 116 ] }
let nack_spread = Rtcp.Nack { sender_ssrc = 1; media_ssrc = 2; lost = [ 10; 200; 3000 ] }

let twcc =
  Rtcp.Twcc
    { sender_ssrc = 9; media_ssrc = 10; base_seq = 500; fb_count = 3; deltas = [ 0; 4; 133; 7; 255 ] }

let rtcp_compound () =
  let packets = [ rr; remb ] in
  let parsed = Rtcp.parse_compound (Rtcp.serialize_compound packets) in
  Alcotest.(check int) "two packets" 2 (List.length parsed);
  Alcotest.(check bool) "equal" true (List.for_all2 Rtcp.equal packets parsed)

let rtcp_remb_precision () =
  (* mantissa is 18 bits: large bitrates are approximated but within 2^-18 *)
  let bitrate = 123_456_789 in
  match Rtcp.parse (Rtcp.serialize (Rtcp.Remb { sender_ssrc = 0; bitrate_bps = bitrate; ssrcs = [] })) with
  | Rtcp.Remb { bitrate_bps; _ } ->
      let err = Float.abs (float_of_int (bitrate_bps - bitrate)) /. float_of_int bitrate in
      Alcotest.(check bool) "within mantissa precision" true (err < 1.0 /. 131072.0)
  | _ -> Alcotest.fail "not a REMB"

let rtcp_packet_types () =
  Alcotest.(check int) "SR" 200 (Rtcp.packet_type sr);
  Alcotest.(check int) "RR" 201 (Rtcp.packet_type rr);
  Alcotest.(check int) "SDES" 202 (Rtcp.packet_type sdes);
  Alcotest.(check int) "BYE" 203 (Rtcp.packet_type bye);
  Alcotest.(check int) "NACK" 205 (Rtcp.packet_type nack_simple);
  Alcotest.(check int) "PLI/REMB" 206 (Rtcp.packet_type pli)

(* --- STUN ------------------------------------------------------------------------ *)

let tid = Bytes.of_string "0123456789ab"

let stun_request_roundtrip () =
  let m = Stun.binding_request ~username:"user" ~priority:12345 ~transaction_id:tid () in
  Alcotest.(check bool) "roundtrip" true (Stun.equal m (Stun.parse (Stun.serialize m)))

let stun_success_roundtrip () =
  let m = Stun.binding_success ~transaction_id:tid ~mapped_ip:0x0A000001 ~mapped_port:54321 in
  let m' = Stun.parse (Stun.serialize m) in
  Alcotest.(check bool) "roundtrip" true (Stun.equal m m');
  match m'.Stun.attributes with
  | [ Stun.Xor_mapped_address { ip; port } ] ->
      Alcotest.(check int) "ip survives xor" 0x0A000001 ip;
      Alcotest.(check int) "port survives xor" 54321 port
  | _ -> Alcotest.fail "missing xor-mapped address"

let stun_class_encoding () =
  List.iter
    (fun cls ->
      let m = { Stun.cls; method_ = 0x001; transaction_id = tid; attributes = [] } in
      let m' = Stun.parse (Stun.serialize m) in
      Alcotest.(check bool) "class preserved" true (m'.Stun.cls = cls))
    [ Stun.Request; Stun.Success_response; Stun.Error_response; Stun.Indication ]

let stun_detection () =
  let m = Stun.binding_request ~transaction_id:tid () in
  Alcotest.(check bool) "is_stun" true (Stun.is_stun (Stun.serialize m));
  Alcotest.(check bool) "rtp is not stun" false
    (Stun.is_stun (Packet.serialize (mk_packet ())));
  Alcotest.(check bool) "short buffer" false (Stun.is_stun (Bytes.create 4))

let stun_ice_attributes () =
  let m =
    {
      Stun.cls = Stun.Request;
      method_ = 0x001;
      transaction_id = tid;
      attributes = [ Stun.Ice_controlling 0x0123456789ABCDEFL; Stun.Use_candidate ];
    }
  in
  Alcotest.(check bool) "ice attrs roundtrip" true (Stun.equal m (Stun.parse (Stun.serialize m)))

let stun_bad_cookie () =
  let buf = Stun.serialize (Stun.binding_request ~transaction_id:tid ()) in
  Bytes.set buf 4 '\x00';
  Alcotest.(check bool) "bad cookie rejected" true
    (try
       ignore (Stun.parse buf);
       false
     with Wire.Parse_error _ -> true)

(* --- demux ------------------------------------------------------------------------- *)

let demux_classification () =
  let check what expected buf =
    Alcotest.(check bool) what true (Demux.classify buf = expected)
  in
  check "rtp" Demux.Rtp_media (Packet.serialize (mk_packet ()));
  check "rtcp" Demux.Rtcp_feedback (Rtcp.serialize_compound [ rr; remb ]);
  check "stun" Demux.Stun_packet (Stun.serialize (Stun.binding_request ~transaction_id:tid ()));
  check "garbage" Demux.Unknown (Bytes.of_string "\xFF\xFF\xFF\xFF");
  check "empty" Demux.Unknown Bytes.empty

let demux_rtcp_type () =
  Alcotest.(check (option int)) "first pt" (Some 201)
    (Demux.rtcp_packet_type (Rtcp.serialize_compound [ rr; remb ]));
  Alcotest.(check (option int)) "rtp has none" None
    (Demux.rtcp_packet_type (Packet.serialize (mk_packet ())))

let demux_rtp_high_payload_type () =
  (* payload type 111 (audio) must not be mistaken for RTCP *)
  let p = Packet.make ~payload_type:111 ~sequence:1 ~timestamp:2 ~ssrc:3 (Bytes.create 4) in
  Alcotest.(check bool) "pt 111 is rtp" true (Demux.classify (Packet.serialize p) = Demux.Rtp_media);
  (* marker bit set on payload type 96 -> second byte 0xE0, still RTP *)
  let m = Packet.make ~marker:true ~payload_type:96 ~sequence:1 ~timestamp:2 ~ssrc:3 (Bytes.create 4) in
  Alcotest.(check bool) "marker is rtp" true (Demux.classify (Packet.serialize m) = Demux.Rtp_media)

(* --- qcheck ----------------------------------------------------------------------------- *)

let gen_extension =
  QCheck.Gen.(
    map2
      (fun id len -> { Packet.id; data = Bytes.create (len + 1) })
      (1 -- 13) (0 -- 15))

(* RFC 5761: payload types 64-95 are forbidden when RTP and RTCP share a
   port (their marker-bit form collides with RTCP packet types), so the
   generator only produces mux-safe payload types, as real stacks do. *)
let gen_payload_type = QCheck.Gen.(oneof [ 0 -- 63; 96 -- 127 ])

let gen_packet =
  QCheck.Gen.(
    map
      (fun (marker, pt, seq, (ts, ssrc, exts, payload_len)) ->
        Packet.make ~marker ~extensions:exts ~payload_type:pt ~sequence:seq ~timestamp:ts
          ~ssrc (Bytes.create payload_len))
      (quad bool gen_payload_type (0 -- 0xFFFF)
         (quad (0 -- 0xFFFFFF) (0 -- 0xFFFFFF) (list_size (0 -- 3) gen_extension) (0 -- 1400))))

let prop_rtp_roundtrip =
  QCheck.Test.make ~count:500 ~name:"rtp parse . serialize = id"
    (QCheck.make gen_packet)
    (fun p -> Packet.equal p (Packet.parse (Packet.serialize p)))

let prop_nack_roundtrip =
  QCheck.Test.make ~count:300 ~name:"nack lost-list roundtrip"
    QCheck.(list_of_size Gen.(1 -- 30) (int_bound 0x3FFF))
    (fun lost ->
      let n = Rtcp.Nack { sender_ssrc = 1; media_ssrc = 2; lost } in
      Rtcp.equal n (Rtcp.parse (Rtcp.serialize n)))

let prop_seq_sub_inverse =
  QCheck.Test.make ~count:500 ~name:"seq_add/seq_sub inverse"
    QCheck.(pair (int_bound 0xFFFF) (int_bound 0x7FFF))
    (fun (s, d) -> Packet.seq_sub (Packet.seq_add s d) s = d)

let prop_demux_never_confuses =
  QCheck.Test.make ~count:300 ~name:"serialized rtp always classified rtp"
    (QCheck.make gen_packet)
    (fun p -> Demux.classify (Packet.serialize p) = Demux.Rtp_media)

let qsuite =
  List.map Fixed_seed.to_alcotest
    [ prop_rtp_roundtrip; prop_nack_roundtrip; prop_seq_sub_inverse; prop_demux_never_confuses ]

let () =
  Alcotest.run "rtp"
    [
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick wire_roundtrip;
          Alcotest.test_case "truncation" `Quick wire_truncation;
          Alcotest.test_case "peek" `Quick wire_peek;
          Alcotest.test_case "masking" `Quick wire_masking;
          Alcotest.test_case "text numbers" `Quick text_numbers;
        ] );
      ( "rtp",
        [
          Alcotest.test_case "basic roundtrip" `Quick rtp_basic_roundtrip;
          Alcotest.test_case "extension roundtrip" `Quick rtp_extension_roundtrip;
          Alcotest.test_case "two-byte profile" `Quick rtp_two_byte_profile;
          Alcotest.test_case "multiple extensions" `Quick rtp_multiple_extensions;
          Alcotest.test_case "empty payload" `Quick rtp_empty_payload;
          Alcotest.test_case "wire size exact" `Quick rtp_wire_size_exact;
          Alcotest.test_case "bad version" `Quick rtp_bad_version;
          Alcotest.test_case "with_sequence" `Quick rtp_with_sequence;
          Alcotest.test_case "seq arithmetic" `Quick seq_arithmetic;
        ] );
      ( "rtcp",
        [
          rtcp_roundtrip "sender report" sr;
          rtcp_roundtrip "receiver report" rr;
          rtcp_roundtrip "sdes" sdes;
          rtcp_roundtrip "bye" bye;
          rtcp_roundtrip "pli" pli;
          rtcp_roundtrip "remb" remb;
          rtcp_roundtrip "nack simple" nack_simple;
          rtcp_roundtrip "nack bitmap" nack_bitmap;
          rtcp_roundtrip "nack spread" nack_spread;
          rtcp_roundtrip "twcc" twcc;
          Alcotest.test_case "compound" `Quick rtcp_compound;
          Alcotest.test_case "remb precision" `Quick rtcp_remb_precision;
          Alcotest.test_case "packet types" `Quick rtcp_packet_types;
        ] );
      ( "stun",
        [
          Alcotest.test_case "request roundtrip" `Quick stun_request_roundtrip;
          Alcotest.test_case "success roundtrip" `Quick stun_success_roundtrip;
          Alcotest.test_case "class encoding" `Quick stun_class_encoding;
          Alcotest.test_case "detection" `Quick stun_detection;
          Alcotest.test_case "ice attributes" `Quick stun_ice_attributes;
          Alcotest.test_case "bad cookie" `Quick stun_bad_cookie;
        ] );
      ( "demux",
        [
          Alcotest.test_case "classification" `Quick demux_classification;
          Alcotest.test_case "rtcp type" `Quick demux_rtcp_type;
          Alcotest.test_case "high payload types" `Quick demux_rtp_high_payload_type;
        ] );
      ("properties", qsuite);
    ]
