type report_block = {
  ssrc : int;
  fraction_lost : int;
  cumulative_lost : int;
  highest_seq : int;
  jitter : int;
  last_sr : int;
  dlsr : int;
}

type sender_info = {
  ntp_sec : int;
  ntp_frac : int;
  rtp_ts : int;
  packet_count : int;
  octet_count : int;
}

type sdes_item = Cname of string

type t =
  | Sender_report of { ssrc : int; info : sender_info; reports : report_block list }
  | Receiver_report of { ssrc : int; reports : report_block list }
  | Sdes of (int * sdes_item list) list
  | Bye of { ssrcs : int list; reason : string option }
  | Nack of { sender_ssrc : int; media_ssrc : int; lost : int list }
  | Pli of { sender_ssrc : int; media_ssrc : int }
  | Remb of { sender_ssrc : int; bitrate_bps : int; ssrcs : int list }
  | Twcc of {
      sender_ssrc : int;
      media_ssrc : int;
      base_seq : int;
      fb_count : int;
      deltas : int list;
    }

let pt_sr = 200
let pt_rr = 201
let pt_sdes = 202
let pt_bye = 203
let pt_rtpfb = 205
let pt_psfb = 206

let packet_type = function
  | Sender_report _ -> pt_sr
  | Receiver_report _ -> pt_rr
  | Sdes _ -> pt_sdes
  | Bye _ -> pt_bye
  | Nack _ | Twcc _ -> pt_rtpfb
  | Pli _ | Remb _ -> pt_psfb

(* --- serialization ------------------------------------------------------ *)

let write_report_block w (b : report_block) =
  Wire.Writer.u32_int w b.ssrc;
  Wire.Writer.u8 w b.fraction_lost;
  Wire.Writer.u24 w b.cumulative_lost;
  Wire.Writer.u32_int w b.highest_seq;
  Wire.Writer.u32_int w b.jitter;
  Wire.Writer.u32_int w b.last_sr;
  Wire.Writer.u32_int w b.dlsr

(* Pack an ascending list of lost sequence numbers into (PID, BLP) pairs:
   each pair covers PID plus the 16 sequence numbers after it. *)
let pack_nack_fci lost =
  let sorted = List.sort_uniq compare lost in
  let rec group acc = function
    | [] -> List.rev acc
    | pid :: rest ->
        let in_window, beyond =
          List.partition (fun s -> s > pid && s - pid <= 16) rest
        in
        let blp =
          List.fold_left (fun m s -> m lor (1 lsl (s - pid - 1))) 0 in_window
        in
        group ((pid, blp) :: acc) beyond
  in
  group [] sorted

let unpack_nack_fci pairs =
  List.concat_map
    (fun (pid, blp) ->
      let tail =
        List.filteri (fun i _ -> blp land (1 lsl i) <> 0) (List.init 16 (fun i -> i))
        |> List.map (fun i -> pid + i + 1)
      in
      pid :: tail)
    pairs

(* REMB mantissa/exponent encoding: bitrate = mantissa * 2^exp, 18-bit
   mantissa. *)
let remb_encode_bitrate bps =
  let rec find exp m = if m < 1 lsl 18 then (exp, m) else find (exp + 1) (m lsr 1) in
  find 0 bps

let header w ~count ~pt ~body =
  let len_bytes = Bytes.length body in
  assert (len_bytes mod 4 = 0);
  Wire.Writer.u8 w ((2 lsl 6) lor (count land 0x1F));
  Wire.Writer.u8 w pt;
  Wire.Writer.u16 w ((len_bytes / 4) + 1 - 1);
  (* length is in 32-bit words minus one, counting the 4-byte header *)
  Wire.Writer.bytes w body

let pad32 w =
  while Wire.Writer.length w mod 4 <> 0 do
    Wire.Writer.u8 w 0
  done

let serialize t =
  let w = Wire.Writer.create () in
  let body = Wire.Writer.create () in
  let count =
    match t with
    | Sender_report { ssrc; info; reports } ->
        Wire.Writer.u32_int body ssrc;
        Wire.Writer.u32_int body info.ntp_sec;
        Wire.Writer.u32_int body info.ntp_frac;
        Wire.Writer.u32_int body info.rtp_ts;
        Wire.Writer.u32_int body info.packet_count;
        Wire.Writer.u32_int body info.octet_count;
        List.iter (write_report_block body) reports;
        List.length reports
    | Receiver_report { ssrc; reports } ->
        Wire.Writer.u32_int body ssrc;
        List.iter (write_report_block body) reports;
        List.length reports
    | Sdes chunks ->
        List.iter
          (fun (ssrc, items) ->
            Wire.Writer.u32_int body ssrc;
            List.iter
              (fun (Cname name) ->
                Wire.Writer.u8 body 1;
                Wire.Writer.u8 body (String.length name);
                Wire.Writer.bytes body (Bytes.of_string name))
              items;
            Wire.Writer.u8 body 0;
            pad32 body)
          chunks;
        List.length chunks
    | Bye { ssrcs; reason } ->
        List.iter (fun s -> Wire.Writer.u32_int body s) ssrcs;
        (match reason with
        | None -> ()
        | Some r ->
            Wire.Writer.u8 body (String.length r);
            Wire.Writer.bytes body (Bytes.of_string r);
            pad32 body);
        List.length ssrcs
    | Nack { sender_ssrc; media_ssrc; lost } ->
        Wire.Writer.u32_int body sender_ssrc;
        Wire.Writer.u32_int body media_ssrc;
        List.iter
          (fun (pid, blp) ->
            Wire.Writer.u16 body pid;
            Wire.Writer.u16 body blp)
          (pack_nack_fci lost);
        1
    | Twcc { sender_ssrc; media_ssrc; base_seq; fb_count; deltas } ->
        Wire.Writer.u32_int body sender_ssrc;
        Wire.Writer.u32_int body media_ssrc;
        Wire.Writer.u16 body base_seq;
        Wire.Writer.u8 body fb_count;
        Wire.Writer.u8 body (List.length deltas);
        List.iter (fun d -> Wire.Writer.u8 body d) deltas;
        pad32 body;
        15
    | Pli { sender_ssrc; media_ssrc } ->
        Wire.Writer.u32_int body sender_ssrc;
        Wire.Writer.u32_int body media_ssrc;
        1
    | Remb { sender_ssrc; bitrate_bps; ssrcs } ->
        Wire.Writer.u32_int body sender_ssrc;
        Wire.Writer.u32_int body 0;
        Wire.Writer.bytes body (Bytes.of_string "REMB");
        let exp, mantissa = remb_encode_bitrate bitrate_bps in
        Wire.Writer.u8 body (List.length ssrcs);
        Wire.Writer.u8 body ((exp lsl 2) lor (mantissa lsr 16));
        Wire.Writer.u16 body (mantissa land 0xFFFF);
        List.iter (fun s -> Wire.Writer.u32_int body s) ssrcs;
        15
  in
  header w ~count ~pt:(packet_type t) ~body:(Wire.Writer.contents body);
  Wire.Writer.contents w

(* --- parsing ------------------------------------------------------------ *)

let read_report_block r : report_block =
  let ssrc = Wire.Reader.u32_int r in
  let fraction_lost = Wire.Reader.u8 r in
  let cumulative_lost = Wire.Reader.u24 r in
  let highest_seq = Wire.Reader.u32_int r in
  let jitter = Wire.Reader.u32_int r in
  let last_sr = Wire.Reader.u32_int r in
  let dlsr = Wire.Reader.u32_int r in
  { ssrc; fraction_lost; cumulative_lost; highest_seq; jitter; last_sr; dlsr }

let parse_one r =
  let b0 = Wire.Reader.u8 r in
  if b0 lsr 6 <> 2 then Wire.parse_error "RTCP version %d" (b0 lsr 6);
  let count = b0 land 0x1F in
  let pt = Wire.Reader.u8 r in
  let words = Wire.Reader.u16 r in
  let body = Wire.Reader.take r (words * 4) in
  let r = Wire.Reader.of_bytes body in
  if pt = pt_sr then begin
    let ssrc = Wire.Reader.u32_int r in
    let ntp_sec = Wire.Reader.u32_int r in
    let ntp_frac = Wire.Reader.u32_int r in
    let rtp_ts = Wire.Reader.u32_int r in
    let packet_count = Wire.Reader.u32_int r in
    let octet_count = Wire.Reader.u32_int r in
    let reports = List.init count (fun _ -> read_report_block r) in
    Sender_report
      { ssrc; info = { ntp_sec; ntp_frac; rtp_ts; packet_count; octet_count }; reports }
  end
  else if pt = pt_rr then begin
    let ssrc = Wire.Reader.u32_int r in
    let reports = List.init count (fun _ -> read_report_block r) in
    Receiver_report { ssrc; reports }
  end
  else if pt = pt_sdes then begin
    let read_chunk () =
      let ssrc = Wire.Reader.u32_int r in
      let rec items acc =
        match Wire.Reader.u8 r with
        | 0 ->
            (* consume chunk padding to the 32-bit boundary *)
            while Wire.Reader.pos r mod 4 <> 0 do
              Wire.Reader.skip r 1
            done;
            List.rev acc
        | 1 ->
            let len = Wire.Reader.u8 r in
            let name = Bytes.to_string (Wire.Reader.take r len) in
            items (Cname name :: acc)
        | ty -> Wire.parse_error "unsupported SDES item type %d" ty
      in
      (ssrc, items [])
    in
    Sdes (List.init count (fun _ -> read_chunk ()))
  end
  else if pt = pt_bye then begin
    let ssrcs = List.init count (fun _ -> Wire.Reader.u32_int r) in
    let reason =
      if Wire.Reader.eof r then None
      else begin
        let len = Wire.Reader.u8 r in
        Some (Bytes.to_string (Wire.Reader.take r len))
      end
    in
    Bye { ssrcs; reason }
  end
  else if pt = pt_rtpfb then begin
    let sender_ssrc = Wire.Reader.u32_int r in
    let media_ssrc = Wire.Reader.u32_int r in
    match count with
    | 1 ->
        let rec fcis acc =
          if Wire.Reader.eof r then List.rev acc
          else begin
            let pid = Wire.Reader.u16 r in
            let blp = Wire.Reader.u16 r in
            fcis ((pid, blp) :: acc)
          end
        in
        Nack { sender_ssrc; media_ssrc; lost = unpack_nack_fci (fcis []) }
    | 15 ->
        let base_seq = Wire.Reader.u16 r in
        let fb_count = Wire.Reader.u8 r in
        let n = Wire.Reader.u8 r in
        let deltas = List.init n (fun _ -> Wire.Reader.u8 r) in
        Twcc { sender_ssrc; media_ssrc; base_seq; fb_count; deltas }
    | fmt -> Wire.parse_error "RTPFB fmt %d unsupported" fmt
  end
  else if pt = pt_psfb then begin
    let sender_ssrc = Wire.Reader.u32_int r in
    let media_ssrc = Wire.Reader.u32_int r in
    match count with
    | 1 -> Pli { sender_ssrc; media_ssrc }
    | 15 ->
        let tag = Bytes.to_string (Wire.Reader.take r 4) in
        if tag <> "REMB" then Wire.parse_error "PSFB/ALFB tag %S" tag;
        let num = Wire.Reader.u8 r in
        let b = Wire.Reader.u8 r in
        let exp = b lsr 2 in
        let mantissa = ((b land 0x3) lsl 16) lor Wire.Reader.u16 r in
        let ssrcs = List.init num (fun _ -> Wire.Reader.u32_int r) in
        Remb { sender_ssrc; bitrate_bps = mantissa lsl exp; ssrcs }
    | fmt -> Wire.parse_error "PSFB fmt %d unsupported" fmt
  end
  else Wire.parse_error "unknown RTCP packet type %d" pt

let parse buf = parse_one (Wire.Reader.of_bytes buf)

let serialize_compound packets =
  let w = Wire.Writer.create () in
  List.iter (fun p -> Wire.Writer.bytes w (serialize p)) packets;
  Wire.Writer.contents w

let parse_compound buf =
  let r = Wire.Reader.of_bytes buf in
  let rec loop acc = if Wire.Reader.eof r then List.rev acc else loop (parse_one r :: acc) in
  loop []

let equal a b =
  match (a, b) with
  | Nack n1, Nack n2 ->
      n1.sender_ssrc = n2.sender_ssrc && n1.media_ssrc = n2.media_ssrc
      && List.sort_uniq compare n1.lost = List.sort_uniq compare n2.lost
  | _ -> a = b
