type kind = Rtp_media | Rtcp_feedback | Stun_packet | Unknown

let classify buf =
  if Bytes.length buf < 2 then Unknown
  else begin
    let b0 = Char.code (Bytes.get buf 0) in
    let b1 = Char.code (Bytes.get buf 1) in
    if b0 lsr 6 = 2 then
      (* RFC 5761 demultiplexing: RTCP packet types occupy 192..223, which
         appear in the second byte where RTP would carry M|PT. *)
      if b1 >= 192 && b1 <= 223 then Rtcp_feedback else Rtp_media
    else if Stun.is_stun buf then Stun_packet
    else Unknown
  end

let rtcp_packet_type buf =
  match classify buf with
  | Rtcp_feedback -> Some (Char.code (Bytes.get buf 1))
  | Rtp_media | Stun_packet | Unknown -> None
