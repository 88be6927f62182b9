type kind =
  | Rtp of { av1_template : int option; elements : int }
  | Rtcp of { packet_type : int }
  | Stun
  | Other

type walk = { kind : kind; depth : int }

let max_extension_elements = 10

(* eth + ipv4 + udp (3), rtp header (1), extension header (1), two states
   per element slot (landing + extract), av1 template extraction (1),
   accept (1). *)
let graph_depth = 3 + 1 + 1 + (2 * max_extension_elements) + 1 + 1

exception Reject of int  (** depth at rejection *)

(* the extension id the AV1 dependency descriptor travels under *)
let av1_extension_id = 1

let walk buf =
  let len = Bytes.length buf in
  let byte i = if i >= len then raise (Reject 0) else Char.code (Bytes.get buf i) in
  (* the simulator hands us the UDP payload; the wire headers in front of
     it are three fixed parser states *)
  let depth = ref 3 in
  let state () = incr depth in
  try
    if len < 2 then raise (Reject !depth);
    let b0 = byte 0 in
    if b0 lsr 6 = 2 then begin
      state ();
      (* RTP/RTCP demux on the second byte (RFC 5761) *)
      let b1 = byte 1 in
      if b1 >= 192 && b1 <= 223 then { kind = Rtcp { packet_type = b1 }; depth = !depth }
      else begin
        (* fixed RTP header, then CSRCs *)
        if len < 12 then raise (Reject !depth);
        let cc = b0 land 0xF in
        let has_ext = b0 land 0x10 <> 0 in
        let pos = ref (12 + (4 * cc)) in
        if not has_ext then { kind = Rtp { av1_template = None; elements = 0 }; depth = !depth }
        else begin
          state ();
          (* extension block header: profile + length; the ParserCounter
             is initialized with the byte count *)
          let profile = (byte !pos lsl 8) lor byte (!pos + 1) in
          let words = (byte (!pos + 2) lsl 8) lor byte (!pos + 3) in
          let counter = ref (words * 4) in
          pos := !pos + 4;
          let one_byte = profile = 0xBEDE in
          let two_byte = profile land 0xFFF0 = 0x1000 in
          if not (one_byte || two_byte) then raise (Reject !depth);
          let av1_template = ref None in
          let elements = ref 0 in
          (* depth-aware element tree: each slot has a landing state that
             looks ahead one byte, then an extraction state *)
          let continue = ref true in
          while !continue && !counter > 0 && !elements < max_extension_elements do
            state ();
            (* landing: lookahead *)
            let head = byte !pos in
            if head = 0 then begin
              (* padding byte *)
              incr pos;
              decr counter
            end
            else begin
              state ();
              (* extract one element *)
              let id, elen, hdr =
                if one_byte then ((head lsr 4) land 0xF, (head land 0xF) + 1, 1)
                else (head, byte (!pos + 1), 2)
              in
              if one_byte && id = 15 then continue := false
              else begin
                if id = av1_extension_id && elen >= 1 then
                  (* one more state pulls the template id out of the AV1
                     dependency descriptor *)
                  av1_template := Some (byte (!pos + hdr) land 0x3F);
                pos := !pos + hdr + elen;
                counter := !counter - hdr - elen;
                incr elements
              end
            end
          done;
          if !av1_template <> None then state ();
          { kind = Rtp { av1_template = !av1_template; elements = !elements }; depth = !depth }
        end
      end
    end
    else if len >= 8 && b0 lsr 6 = 0 && byte 4 = 0x21 && byte 5 = 0x12 && byte 6 = 0xA4
            && byte 7 = 0x42 then begin
      state ();
      { kind = Stun; depth = !depth }
    end
    else { kind = Other; depth = !depth }
  with Reject d -> { kind = Other; depth = max d 3 }

type t = { mutable packets : int; mutable max_depth : int; mutable total_depth : int }

let create () = { packets = 0; max_depth = 0; total_depth = 0 }

let observe t buf =
  let w = walk buf in
  t.packets <- t.packets + 1;
  t.max_depth <- max t.max_depth w.depth;
  t.total_depth <- t.total_depth + w.depth;
  w

let packets t = t.packets
let max_depth t = t.max_depth

let mean_depth t =
  if t.packets = 0 then 0.0 else float_of_int t.total_depth /. float_of_int t.packets
