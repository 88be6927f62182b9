exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

module Reader = struct
  type t = { buf : bytes; limit : int; mutable pos : int }

  let of_sub buf ~pos ~len =
    if pos < 0 || len < 0 || pos + len > Bytes.length buf then
      invalid_arg "Wire.Reader.of_sub";
    { buf; limit = pos + len; pos }

  let of_bytes buf = of_sub buf ~pos:0 ~len:(Bytes.length buf)
  let pos t = t.pos
  let remaining t = t.limit - t.pos
  let eof t = t.pos >= t.limit

  let need t n =
    if remaining t < n then
      parse_error "truncated: need %d bytes, have %d" n (remaining t)

  let u8 t =
    need t 1;
    let v = Char.code (Bytes.get t.buf t.pos) in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    let hi = u8 t in
    let lo = u8 t in
    (hi lsl 8) lor lo

  let u24 t =
    let hi = u16 t in
    let lo = u8 t in
    (hi lsl 8) lor lo

  let u32_int t =
    let hi = u16 t in
    let lo = u16 t in
    (hi lsl 16) lor lo

  let take t n =
    need t n;
    let b = Bytes.sub t.buf t.pos n in
    t.pos <- t.pos + n;
    b

  let skip t n =
    need t n;
    t.pos <- t.pos + n

  let peek_u8 t =
    need t 1;
    Char.code (Bytes.get t.buf t.pos)
end

module Writer = struct
  type t = Buffer.t

  let create () = Buffer.create 256
  let length = Buffer.length
  let u8 t v = Buffer.add_char t (Char.chr (v land 0xFF))

  let u16 t v =
    u8 t (v lsr 8);
    u8 t v

  let u24 t v =
    u8 t (v lsr 16);
    u8 t (v lsr 8);
    u8 t v

  let u32_int t v =
    u16 t (v lsr 16);
    u16 t v

  let bytes t b = Buffer.add_bytes t b
  let contents t = Buffer.to_bytes t
end

module Patch = struct
  let u16 buf ~pos v =
    Bytes.set buf pos (Char.chr ((v lsr 8) land 0xFF));
    Bytes.set buf (pos + 1) (Char.chr (v land 0xFF))

  let u32 buf ~pos v =
    u16 buf ~pos ((v lsr 16) land 0xFFFF);
    u16 buf ~pos:(pos + 2) (v land 0xFFFF)
end
