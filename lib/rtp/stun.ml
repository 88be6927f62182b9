type attribute =
  | Username of string
  | Priority of int
  | Ice_controlling of int64
  | Ice_controlled of int64
  | Use_candidate
  | Xor_mapped_address of { ip : int; port : int }
  | Unknown of int * bytes

type message_class = Request | Success_response | Error_response | Indication

type t = {
  cls : message_class;
  method_ : int;
  transaction_id : bytes;
  attributes : attribute list;
}

let magic_cookie = 0x2112A442

let binding_request ?username ?priority ~transaction_id () =
  let attributes =
    List.filter_map Fun.id
      [
        Option.map (fun u -> Username u) username;
        Option.map (fun p -> Priority p) priority;
      ]
  in
  { cls = Request; method_ = 0x001; transaction_id; attributes }

let binding_success ~transaction_id ~mapped_ip ~mapped_port =
  {
    cls = Success_response;
    method_ = 0x001;
    transaction_id;
    attributes = [ Xor_mapped_address { ip = mapped_ip; port = mapped_port } ];
  }

(* Message type encodes class bits at positions 4 and 8 interleaved with the
   method (RFC 5389 §6). *)
let encode_type cls method_ =
  let c =
    match cls with Request -> 0 | Indication -> 1 | Success_response -> 2 | Error_response -> 3
  in
  let m = method_ in
  ((m land 0xF80) lsl 2)
  lor ((c land 0x2) lsl 7)
  lor ((m land 0x70) lsl 1)
  lor ((c land 0x1) lsl 4)
  lor (m land 0xF)

let decode_type ty =
  let c = ((ty lsr 7) land 0x2) lor ((ty lsr 4) land 0x1) in
  let m = ((ty lsr 2) land 0xF80) lor ((ty lsr 1) land 0x70) lor (ty land 0xF) in
  let cls =
    match c with
    | 0 -> Request
    | 1 -> Indication
    | 2 -> Success_response
    | _ -> Error_response
  in
  (cls, m)

let attr_username = 0x0006
let attr_priority = 0x0024
let attr_use_candidate = 0x0025
let attr_xor_mapped = 0x0020
let attr_ice_controlled = 0x8029
let attr_ice_controlling = 0x802A

let write_attr w attr =
  let body = Wire.Writer.create () in
  let ty =
    match attr with
    | Username u ->
        Wire.Writer.bytes body (Bytes.of_string u);
        attr_username
    | Priority p ->
        Wire.Writer.u32_int body p;
        attr_priority
    | Use_candidate -> attr_use_candidate
    | Ice_controlling v ->
        Wire.Writer.u32_int body (Int64.to_int (Int64.shift_right_logical v 32));
        Wire.Writer.u32_int body (Int64.to_int (Int64.logand v 0xFFFFFFFFL));
        attr_ice_controlling
    | Ice_controlled v ->
        Wire.Writer.u32_int body (Int64.to_int (Int64.shift_right_logical v 32));
        Wire.Writer.u32_int body (Int64.to_int (Int64.logand v 0xFFFFFFFFL));
        attr_ice_controlled
    | Xor_mapped_address { ip; port } ->
        Wire.Writer.u8 body 0;
        Wire.Writer.u8 body 0x01;
        Wire.Writer.u16 body (port lxor (magic_cookie lsr 16));
        Wire.Writer.u32_int body (ip lxor magic_cookie);
        attr_xor_mapped
    | Unknown (ty, data) ->
        Wire.Writer.bytes body data;
        ty
  in
  let data = Wire.Writer.contents body in
  Wire.Writer.u16 w ty;
  Wire.Writer.u16 w (Bytes.length data);
  Wire.Writer.bytes w data;
  (* attributes are padded to 32-bit boundaries *)
  let pad = (4 - (Bytes.length data mod 4)) mod 4 in
  for _ = 1 to pad do
    Wire.Writer.u8 w 0
  done

let serialize t =
  if Bytes.length t.transaction_id <> 12 then invalid_arg "Stun: transaction id must be 12 bytes";
  let attrs = Wire.Writer.create () in
  List.iter (write_attr attrs) t.attributes;
  let body = Wire.Writer.contents attrs in
  let w = Wire.Writer.create () in
  Wire.Writer.u16 w (encode_type t.cls t.method_);
  Wire.Writer.u16 w (Bytes.length body);
  Wire.Writer.u32_int w magic_cookie;
  Wire.Writer.bytes w t.transaction_id;
  Wire.Writer.bytes w body;
  Wire.Writer.contents w

let read_attr r =
  let ty = Wire.Reader.u16 r in
  let len = Wire.Reader.u16 r in
  let data = Wire.Reader.take r len in
  let pad = (4 - (len mod 4)) mod 4 in
  if Wire.Reader.remaining r >= pad then Wire.Reader.skip r pad;
  let dr = Wire.Reader.of_bytes data in
  if ty = attr_username then Username (Bytes.to_string data)
  else if ty = attr_priority then Priority (Wire.Reader.u32_int dr)
  else if ty = attr_use_candidate then Use_candidate
  else if ty = attr_ice_controlling then begin
    let hi = Wire.Reader.u32_int dr and lo = Wire.Reader.u32_int dr in
    Ice_controlling Int64.(logor (shift_left (of_int hi) 32) (of_int lo))
  end
  else if ty = attr_ice_controlled then begin
    let hi = Wire.Reader.u32_int dr and lo = Wire.Reader.u32_int dr in
    Ice_controlled Int64.(logor (shift_left (of_int hi) 32) (of_int lo))
  end
  else if ty = attr_xor_mapped then begin
    Wire.Reader.skip dr 1;
    let family = Wire.Reader.u8 dr in
    if family <> 0x01 then Wire.parse_error "STUN: only IPv4 supported";
    let port = Wire.Reader.u16 dr lxor (magic_cookie lsr 16) in
    let ip = Wire.Reader.u32_int dr lxor magic_cookie in
    Xor_mapped_address { ip; port }
  end
  else Unknown (ty, data)

let parse buf =
  let r = Wire.Reader.of_bytes buf in
  let ty = Wire.Reader.u16 r in
  if ty land 0xC000 <> 0 then Wire.parse_error "not a STUN message";
  let len = Wire.Reader.u16 r in
  let cookie = Wire.Reader.u32_int r in
  if cookie <> magic_cookie then Wire.parse_error "bad STUN magic cookie";
  let transaction_id = Wire.Reader.take r 12 in
  let body = Wire.Reader.take r len in
  let br = Wire.Reader.of_bytes body in
  let rec attrs acc = if Wire.Reader.eof br then List.rev acc else attrs (read_attr br :: acc) in
  let cls, method_ = decode_type ty in
  { cls; method_; transaction_id; attributes = attrs [] }

let is_stun buf =
  Bytes.length buf >= 8
  && Char.code (Bytes.get buf 0) land 0xC0 = 0
  && Char.code (Bytes.get buf 4) = 0x21
  && Char.code (Bytes.get buf 5) = 0x12
  && Char.code (Bytes.get buf 6) = 0xA4
  && Char.code (Bytes.get buf 7) = 0x42

let equal a b =
  a.cls = b.cls && a.method_ = b.method_
  && Bytes.equal a.transaction_id b.transaction_id
  && a.attributes = b.attributes
