(* QCheck generator of SDP descriptions, shared by test_sdp's round trip
   and test_parsers' mangled-text property. *)

module Addr = Scallop_util.Addr

(* Descriptions the text form can carry: the origin's port is not on the
   wire (it parses back as 0), values run to the end of their line so
   they hold no surrounding whitespace, and a token holds no space (nor
   the codec a '/', nor the cname a ':'). *)
let sdp =
  let open QCheck.Gen in
  let word ~min =
    string_size ~gen:(oneofl (List.of_seq (String.to_seq "abcXYZ019-_.+"))) (int_range min 6)
  in
  let ip = map (fun i -> i land 0xFFFFFFFF) int in
  let addr = map2 Addr.v ip (int_range 0 0xFFFF) in
  let candidate =
    map
      (fun (foundation, component, priority, addr, typ) ->
        { Sdp.foundation; component; priority; addr; typ })
      (tup5 (word ~min:1) int int addr (word ~min:1))
  in
  let media =
    map
      (fun ( (kind, mid, payload_type, codec, clock_rate),
             (ssrc, cname, direction, candidates, extmaps),
             svc_mode ) ->
        Sdp.make_media ~direction ~extmaps ~svc_mode ~kind ~mid ~payload_type ~codec ~clock_rate
          ~ssrc ~cname ~candidates ())
      (triple
         (tup5 (oneofl [ Sdp.Audio; Sdp.Video; Sdp.Screen ]) (word ~min:0) int (word ~min:0) int)
         (tup5 int (word ~min:0)
            (oneofl [ Sdp.Sendrecv; Sdp.Sendonly; Sdp.Recvonly; Sdp.Inactive ])
            (list_size (int_range 0 3) candidate)
            (list_size (int_range 0 3) (pair int (word ~min:1))))
         (opt (word ~min:0)))
  in
  map
    (fun (session_id, ip, ice_ufrag, ice_pwd, medias) ->
      { Sdp.session_id; origin_addr = Addr.v ip 0; ice_ufrag; ice_pwd; medias })
    (tup5 int ip (word ~min:0) (word ~min:0) (list_size (int_range 0 4) media))
