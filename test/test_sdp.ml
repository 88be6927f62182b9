(* SDP offer/answer and candidate-rewriting tests (paper §5.1). *)

module Addr = Scallop_util.Addr

let addr = Addr.of_string "192.168.1.10:5000"
let sfu = Addr.of_string "10.0.0.1:40000"

let offer ?(direction = Sdp.Sendrecv) () =
  {
    Sdp.session_id = 12345;
    origin_addr = Addr.v addr.Addr.ip 0;
    ice_ufrag = "uf01";
    ice_pwd = "pw0123";
    medias =
      [
        Sdp.make_media ~direction ~extmaps:[ (1, "urn:av1:dependency-descriptor") ]
          ~svc_mode:(Some "L1T3") ~kind:Sdp.Video ~mid:"0" ~payload_type:96 ~codec:"AV1"
          ~clock_rate:90000 ~ssrc:1111 ~cname:"alice" ~candidates:[ Sdp.host_candidate addr ] ();
        Sdp.make_media ~direction ~kind:Sdp.Audio ~mid:"1" ~payload_type:111 ~codec:"opus"
          ~clock_rate:48000 ~ssrc:2222 ~cname:"alice" ~candidates:[ Sdp.host_candidate addr ] ();
      ];
  }

let roundtrip () =
  let o = offer () in
  Alcotest.(check bool) "to_string/of_string" true (Sdp.equal o (Sdp.of_string (Sdp.to_string o)))

let fields_preserved () =
  let o = Sdp.of_string (Sdp.to_string (offer ())) in
  Alcotest.(check int) "session id" 12345 o.Sdp.session_id;
  Alcotest.(check string) "ufrag" "uf01" o.Sdp.ice_ufrag;
  Alcotest.(check int) "two medias" 2 (List.length o.Sdp.medias);
  let v = List.hd o.Sdp.medias in
  Alcotest.(check string) "codec" "AV1" v.Sdp.codec;
  Alcotest.(check int) "clock" 90000 v.Sdp.clock_rate;
  Alcotest.(check int) "ssrc" 1111 v.Sdp.ssrc;
  Alcotest.(check (option string)) "svc" (Some "L1T3") v.Sdp.svc_mode;
  Alcotest.(check bool) "extmap" true (List.mem_assoc 1 v.Sdp.extmaps)

let candidate_rewrite () =
  (* the controller's splice: every media section ends with exactly one
     candidate pointing at the SFU *)
  let spliced = Sdp.rewrite_candidates (offer ()) sfu in
  List.iter
    (fun m ->
      match m.Sdp.candidates with
      | [ c ] -> Alcotest.(check bool) "sfu addr" true (Addr.equal c.Sdp.addr sfu)
      | _ -> Alcotest.fail "expected exactly one candidate")
    spliced.Sdp.medias

let answer_mirrors_directions () =
  let o = offer ~direction:Sdp.Sendonly () in
  let a =
    Sdp.answer ~offer:o ~session_id:777 ~origin:sfu ~ice_ufrag:"s" ~ice_pwd:"p"
      ~media_for:(fun m -> Some m)
  in
  List.iter
    (fun m -> Alcotest.(check bool) "mirrored" true (m.Sdp.direction = Sdp.Recvonly))
    a.Sdp.medias

let answer_rejects_sections () =
  let o = offer () in
  let a =
    Sdp.answer ~offer:o ~session_id:1 ~origin:sfu ~ice_ufrag:"s" ~ice_pwd:"p"
      ~media_for:(fun m -> if m.Sdp.kind = Sdp.Audio then None else Some m)
  in
  let audio = List.find (fun m -> m.Sdp.kind = Sdp.Audio) a.Sdp.medias in
  Alcotest.(check bool) "audio inactive" true (audio.Sdp.direction = Sdp.Inactive)

let answer_checks_codec () =
  let o = offer () in
  Alcotest.(check bool) "codec mismatch rejected" true
    (try
       ignore
         (Sdp.answer ~offer:o ~session_id:1 ~origin:sfu ~ice_ufrag:"s" ~ice_pwd:"p"
            ~media_for:(fun m -> Some { m with Sdp.codec = "VP8" }));
       false
     with Failure _ -> true)

let unknown_attributes_ignored () =
  let text = Sdp.to_string (offer ()) ^ "a=unknown-flag\na=key:value\n" in
  Alcotest.(check int) "still parses" 2 (List.length (Sdp.of_string text).Sdp.medias)

let malformed_rejected () =
  List.iter
    (fun text ->
      Alcotest.(check bool) ("rejects " ^ text) true
        (try
           ignore (Sdp.of_string text);
           false
         with Rtp.Wire.Parse_error _ -> true))
    [
      "nonsense";
      "m=video UDP/RTP\n";
      "o=- bad origin\n";
      "a=mid:0\n";
      "o=- 1 2 IN IP4 10.0.0.x\n";
      "m=audio 9 UDP/RTP 111\na=candidate:1 1 udp 5 10.0.300.1 9 typ host\n";
    ]

(* --- exact wire text -------------------------------------------------------

   The offer a sending participant's client makes (the shape the
   controller builds: AV1 L1T3 video with the dependency-descriptor
   extension, opus audio, one host candidate) and the answer the
   controller's splice returns. The printer must reproduce them byte for
   byte. *)

let client = Addr.of_string "10.0.1.3:5002"

let controller_offer () =
  {
    Sdp.session_id = 482_913_506;
    origin_addr = Addr.v client.Addr.ip 0;
    ice_ufrag = "uf0a1b2c";
    ice_pwd = "pw00ffee01";
    medias =
      [
        Sdp.make_media ~direction:Sdp.Sendonly ~extmaps:[ (1, "urn:av1:dependency-descriptor") ]
          ~svc_mode:(Some "L1T3") ~kind:Sdp.Video ~mid:"0" ~payload_type:96 ~codec:"AV1"
          ~clock_rate:90000 ~ssrc:0x100007 ~cname:"scallop"
          ~candidates:[ Sdp.host_candidate client ] ();
        Sdp.make_media ~direction:Sdp.Sendonly ~kind:Sdp.Audio ~mid:"1" ~payload_type:111
          ~codec:"opus" ~clock_rate:48000 ~ssrc:0x200007 ~cname:"scallop"
          ~candidates:[ Sdp.host_candidate client ] ();
      ];
  }

let offer_text =
  "v=0\n\
   o=- 482913506 2 IN IP4 10.0.1.3\n\
   s=-\n\
   t=0 0\n\
   a=ice-ufrag:uf0a1b2c\n\
   a=ice-pwd:pw00ffee01\n\
   m=video 5002 UDP/RTP 96\n\
   c=IN IP4 10.0.1.3\n\
   a=mid:0\n\
   a=rtpmap:96 AV1/90000\n\
   a=ssrc:1048583 cname:scallop\n\
   a=sendonly\n\
   a=extmap:1 urn:av1:dependency-descriptor\n\
   a=svc:L1T3\n\
   a=candidate:1 1 udp 2130706431 10.0.1.3 5002 typ host\n\
   m=audio 5002 UDP/RTP 111\n\
   c=IN IP4 10.0.1.3\n\
   a=mid:1\n\
   a=rtpmap:111 opus/48000\n\
   a=ssrc:2097159 cname:scallop\n\
   a=sendonly\n\
   a=candidate:1 1 udp 2130706431 10.0.1.3 5002 typ host\n"

let answer_text =
  "v=0\n\
   o=- 7 2 IN IP4 10.0.0.1\n\
   s=-\n\
   t=0 0\n\
   a=ice-ufrag:sfuuf\n\
   a=ice-pwd:sfupw\n\
   m=video 40000 UDP/RTP 96\n\
   c=IN IP4 10.0.0.1\n\
   a=mid:0\n\
   a=rtpmap:96 AV1/90000\n\
   a=ssrc:1048583 cname:scallop\n\
   a=recvonly\n\
   a=extmap:1 urn:av1:dependency-descriptor\n\
   a=svc:L1T3\n\
   a=candidate:1 1 udp 2130706431 10.0.0.1 40000 typ host\n\
   m=audio 40000 UDP/RTP 111\n\
   c=IN IP4 10.0.0.1\n\
   a=mid:1\n\
   a=rtpmap:111 opus/48000\n\
   a=ssrc:2097159 cname:scallop\n\
   a=recvonly\n\
   a=candidate:1 1 udp 2130706431 10.0.0.1 40000 typ host\n"

let offer_wire_text () =
  Alcotest.(check string) "offer" offer_text (Sdp.to_string (controller_offer ()));
  Alcotest.(check bool) "parses back" true
    (Sdp.equal (controller_offer ()) (Sdp.of_string offer_text))

let answer_wire_text () =
  let spliced = Sdp.rewrite_candidates (Sdp.of_string offer_text) sfu in
  let answer =
    Sdp.answer ~offer:spliced ~session_id:7 ~origin:sfu ~ice_ufrag:"sfuuf" ~ice_pwd:"sfupw"
      ~media_for:(fun m -> Some m)
  in
  Alcotest.(check string) "answer" answer_text (Sdp.to_string answer);
  Alcotest.(check bool) "parses back" true
    (Sdp.equal { answer with Sdp.origin_addr = Addr.v sfu.Addr.ip 0 } (Sdp.of_string answer_text))

(* --- properties -------------------------------------------------------------- *)

let arb_sdp = QCheck.make ~print:Sdp.to_string Sdp_gen.sdp

let prop_roundtrip =
  QCheck.Test.make ~count:500 ~name:"of_string (to_string x) = x" arb_sdp (fun x ->
      Sdp.equal (Sdp.of_string (Sdp.to_string x)) x)

let () =
  Alcotest.run "sdp"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick roundtrip;
          Alcotest.test_case "fields preserved" `Quick fields_preserved;
          Alcotest.test_case "unknown attributes ignored" `Quick unknown_attributes_ignored;
          Alcotest.test_case "malformed rejected" `Quick malformed_rejected;
          Alcotest.test_case "offer wire text" `Quick offer_wire_text;
          Alcotest.test_case "answer wire text" `Quick answer_wire_text;
        ] );
      ( "properties",
        [ Fixed_seed.to_alcotest prop_roundtrip ] );
      ( "offer-answer",
        [
          Alcotest.test_case "candidate rewrite" `Quick candidate_rewrite;
          Alcotest.test_case "answer mirrors directions" `Quick answer_mirrors_directions;
          Alcotest.test_case "answer rejects sections" `Quick answer_rejects_sections;
          Alcotest.test_case "answer checks codec" `Quick answer_checks_codec;
        ] );
    ]
