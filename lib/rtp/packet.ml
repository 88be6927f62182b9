type extension = { id : int; data : bytes }

type t = {
  marker : bool;
  payload_type : int;
  sequence : int;
  timestamp : int;
  ssrc : int;
  csrcs : int list;
  extensions : extension list;
  payload : bytes;
}

let make ?(marker = false) ?(csrcs = []) ?(extensions = []) ~payload_type ~sequence
    ~timestamp ~ssrc payload =
  {
    marker;
    payload_type = payload_type land 0x7F;
    sequence = sequence land 0xFFFF;
    timestamp = timestamp land 0xFFFFFFFF;
    ssrc = ssrc land 0xFFFFFFFF;
    csrcs;
    extensions;
    payload;
  }

let one_byte_ok exts =
  List.for_all
    (fun { id; data } ->
      id >= 1 && id <= 14 && Bytes.length data >= 1 && Bytes.length data <= 16)
    exts

let wire_size t =
  let ext_size =
    if t.extensions = [] then 0
    else begin
      let one_byte = one_byte_ok t.extensions in
      let body =
        List.fold_left
          (fun acc { data; _ } ->
            acc + (if one_byte then 1 else 2) + Bytes.length data)
          0 t.extensions
      in
      4 + ((body + 3) land lnot 3)
    end
  in
  12 + (4 * List.length t.csrcs) + ext_size + Bytes.length t.payload

(* Write the RFC 8285 extension block at [pos] (its elements padded with
   zeros to a 32-bit boundary); returns the offset just past it. *)
let serialize_extensions buf pos exts =
  let one_byte = one_byte_ok exts in
  Wire.Patch.u16 buf ~pos (if one_byte then 0xBEDE else 0x1000);
  let body = pos + 4 in
  let stop =
    List.fold_left
      (fun p { id; data } ->
        let len = Bytes.length data in
        let p =
          if one_byte then begin
            Bytes.set_uint8 buf p (((id lsl 4) lor (len - 1)) land 0xFF);
            p + 1
          end
          else begin
            Bytes.set_uint8 buf p (id land 0xFF);
            Bytes.set_uint8 buf (p + 1) (len land 0xFF);
            p + 2
          end
        in
        Bytes.blit data 0 buf p len;
        p + len)
      body exts
  in
  let padded = (stop - body + 3) land lnot 3 in
  Wire.Patch.u16 buf ~pos:(pos + 2) (padded / 4);
  body + padded

(* Written in place into a buffer of exactly [wire_size t] zeroed bytes:
   one allocation, no growing buffer and no final copy. *)
let serialize t =
  let buf = Bytes.make (wire_size t) '\000' in
  let has_ext = t.extensions <> [] in
  Bytes.set_uint8 buf 0
    (((2 lsl 6) lor (if has_ext then 1 lsl 4 else 0) lor List.length t.csrcs) land 0xFF);
  Bytes.set_uint8 buf 1 ((((if t.marker then 1 else 0) lsl 7) lor t.payload_type) land 0xFF);
  Wire.Patch.u16 buf ~pos:2 t.sequence;
  Wire.Patch.u32 buf ~pos:4 t.timestamp;
  Wire.Patch.u32 buf ~pos:8 t.ssrc;
  let pos =
    List.fold_left
      (fun pos c ->
        Wire.Patch.u32 buf ~pos c;
        pos + 4)
      12 t.csrcs
  in
  let pos = if has_ext then serialize_extensions buf pos t.extensions else pos in
  Bytes.blit t.payload 0 buf pos (Bytes.length t.payload);
  buf

let parse_extension_block r =
  let profile = Wire.Reader.u16 r in
  let words = Wire.Reader.u16 r in
  let block = Wire.Reader.take r (words * 4) in
  let br = Wire.Reader.of_bytes block in
  let one_byte =
    if profile = 0xBEDE then true
    else if profile land 0xFFF0 = 0x1000 then false
    else Wire.parse_error "unsupported RTP extension profile 0x%04X" profile
  in
  let rec elements acc =
    if Wire.Reader.remaining br = 0 then List.rev acc
    else begin
      let b = Wire.Reader.peek_u8 br in
      if b = 0 then begin
        (* padding byte *)
        Wire.Reader.skip br 1;
        elements acc
      end
      else if one_byte then begin
        let b = Wire.Reader.u8 br in
        let id = b lsr 4 and len = (b land 0xF) + 1 in
        if id = 15 then List.rev acc
        else
          let data = Wire.Reader.take br len in
          elements ({ id; data } :: acc)
      end
      else begin
        let id = Wire.Reader.u8 br in
        let len = Wire.Reader.u8 br in
        let data = Wire.Reader.take br len in
        elements ({ id; data } :: acc)
      end
    end
  in
  elements []

let parse buf =
  let r = Wire.Reader.of_bytes buf in
  let b0 = Wire.Reader.u8 r in
  let version = b0 lsr 6 in
  if version <> 2 then Wire.parse_error "RTP version %d" version;
  let padding = b0 land 0x20 <> 0 in
  let has_ext = b0 land 0x10 <> 0 in
  let cc = b0 land 0x0F in
  let b1 = Wire.Reader.u8 r in
  let marker = b1 land 0x80 <> 0 in
  let payload_type = b1 land 0x7F in
  let sequence = Wire.Reader.u16 r in
  let timestamp = Wire.Reader.u32_int r in
  let ssrc = Wire.Reader.u32_int r in
  let csrcs = List.init cc (fun _ -> Wire.Reader.u32_int r) in
  let extensions = if has_ext then parse_extension_block r else [] in
  let payload_len = Wire.Reader.remaining r in
  let payload_len =
    if padding then begin
      if payload_len = 0 then Wire.parse_error "padded RTP packet with no payload";
      let pad = Char.code (Bytes.get buf (Bytes.length buf - 1)) in
      if pad > payload_len then Wire.parse_error "RTP pad count %d too large" pad;
      payload_len - pad
    end
    else payload_len
  in
  let payload = Wire.Reader.take r payload_len in
  { marker; payload_type; sequence; timestamp; ssrc; csrcs; extensions; payload }

let find_extension t id =
  List.find_map (fun e -> if e.id = id then Some e.data else None) t.extensions

module View = struct
  type t = {
    buf : bytes;
    marker : bool;
    payload_type : int;
    sequence : int;
    timestamp : int;
    ssrc : int;
    ext_off : int;
    ext_len : int;
    payload_off : int;
    payload_len : int;
    canonical : bool;
  }

  let sequence_pos = 2
  let ssrc_pos = 8

  (* Single pass over the ingress buffer: fixed header fields, the byte
     extent of the [ext_id] element, the payload extent, and a
     canonicality verdict. Accepts and rejects exactly the inputs [parse]
     does (same Parse_error cases); [canonical] answers whether the buffer
     equals [serialize (parse buf)], i.e. whether a copy-and-patch of the
     raw bytes is interchangeable with a parse-and-reserialize. *)
  let of_bytes ?(ext_id = 0) buf =
    let len = Bytes.length buf in
    let need n pos =
      if pos < 0 || len - pos < n then
        Wire.parse_error "truncated: need %d bytes, have %d" n (len - pos)
    in
    let u8 pos = Char.code (Bytes.get buf pos) in
    let u16 pos = (u8 pos lsl 8) lor u8 (pos + 1) in
    let u32 pos = (u16 pos lsl 16) lor u16 (pos + 2) in
    need 1 0;
    let b0 = u8 0 in
    let version = b0 lsr 6 in
    if version <> 2 then Wire.parse_error "RTP version %d" version;
    let padding = b0 land 0x20 <> 0 in
    let has_ext = b0 land 0x10 <> 0 in
    let cc = b0 land 0x0F in
    need 12 0;
    let b1 = u8 1 in
    let marker = b1 land 0x80 <> 0 in
    let payload_type = b1 land 0x7F in
    let sequence = u16 sequence_pos in
    let timestamp = u32 4 in
    let ssrc = u32 ssrc_pos in
    need (4 * cc) 12;
    let pos = ref (12 + (4 * cc)) in
    (* serialize never sets the padding bit, so padded input can't
       round-trip byte-identically. *)
    let canonical = ref (not padding) in
    let ext_off = ref (-1) in
    let ext_len = ref 0 in
    if has_ext then begin
      need 4 !pos;
      let profile = u16 !pos in
      let words = u16 (!pos + 2) in
      let block_start = !pos + 4 in
      need (words * 4) block_start;
      let block_end = block_start + (words * 4) in
      let one_byte =
        if profile = 0xBEDE then true
        else if profile land 0xFFF0 = 0x1000 then false
        else Wire.parse_error "unsupported RTP extension profile 0x%04X" profile
      in
      (* serialize emits exactly 0x1000 for the two-byte profile. *)
      if (not one_byte) && profile <> 0x1000 then canonical := false;
      let p = ref block_start in
      let zeros = ref 0 in
      let n_elems = ref 0 in
      let all_fit_one_byte = ref true in
      let stop = ref false in
      while (not !stop) && !p < block_end do
        let b = u8 !p in
        if b = 0 then begin
          incr zeros;
          incr p
        end
        else begin
          (* a zero run followed by another element is interior padding,
             which serialize never produces *)
          if !zeros > 0 then canonical := false;
          zeros := 0;
          if one_byte then begin
            let id = b lsr 4 and elen = (b land 0xF) + 1 in
            if id = 15 then begin
              (* terminator: parse drops the rest of the block *)
              canonical := false;
              stop := true
            end
            else begin
              if block_end - (!p + 1) < elen then
                Wire.parse_error "truncated: need %d bytes, have %d" elen
                  (block_end - (!p + 1));
              if id = ext_id && !ext_off < 0 then begin
                ext_off := !p + 1;
                ext_len := elen
              end;
              incr n_elems;
              p := !p + 1 + elen
            end
          end
          else begin
            if block_end - !p < 2 then
              Wire.parse_error "truncated: need 2 bytes, have %d" (block_end - !p);
            let id = b in
            let elen = u8 (!p + 1) in
            if block_end - (!p + 2) < elen then
              Wire.parse_error "truncated: need %d bytes, have %d" elen
                (block_end - (!p + 2));
            if not (id >= 1 && id <= 14 && elen >= 1 && elen <= 16) then
              all_fit_one_byte := false;
            if id = ext_id && !ext_off < 0 then begin
              ext_off := !p + 2;
              ext_len := elen
            end;
            incr n_elems;
            p := !p + 2 + elen
          end
        end
      done;
      (* canonical padding is only the minimal 0-3 trailing zeros *)
      if (not !stop) && !zeros > 3 then canonical := false;
      if !n_elems = 0 then canonical := false
      else if (not one_byte) && !all_fit_one_byte then
        (* serialize would switch these elements to the one-byte profile *)
        canonical := false;
      pos := block_end
    end;
    let payload_off = !pos in
    let payload_len = len - !pos in
    let payload_len =
      if padding then begin
        if payload_len = 0 then Wire.parse_error "padded RTP packet with no payload";
        let pad = u8 (len - 1) in
        if pad > payload_len then Wire.parse_error "RTP pad count %d too large" pad;
        payload_len - pad
      end
      else payload_len
    in
    {
      buf;
      marker;
      payload_type;
      sequence;
      timestamp;
      ssrc;
      ext_off = !ext_off;
      ext_len = !ext_len;
      payload_off;
      payload_len;
      canonical = !canonical;
    }
end

let with_sequence t sequence = { t with sequence = sequence land 0xFFFF }
let with_ssrc t ssrc = { t with ssrc = ssrc land 0xFFFFFFFF }

let seq_succ s = (s + 1) land 0xFFFF
let seq_add s n = (s + n) land 0xFFFF

let seq_sub a b =
  let d = (a - b) land 0xFFFF in
  if d >= 0x8000 then d - 0x10000 else d

let seq_newer a b = seq_sub a b > 0

let equal a b =
  a.marker = b.marker && a.payload_type = b.payload_type && a.sequence = b.sequence
  && a.timestamp = b.timestamp && a.ssrc = b.ssrc && a.csrcs = b.csrcs
  && List.length a.extensions = List.length b.extensions
  && List.for_all2
       (fun x y -> x.id = y.id && Bytes.equal x.data y.data)
       a.extensions b.extensions
  && Bytes.equal a.payload b.payload
