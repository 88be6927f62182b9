type temporal_layer = T0 | T1 | T2
type decode_target = DT_7_5fps | DT_15fps | DT_30fps

type structure = {
  template_layers : temporal_layer array;
  decode_target_count : int;
}

type t = {
  start_of_frame : bool;
  end_of_frame : bool;
  template_id : int;
  frame_number : int;
  structure : structure option;
}

let extension_id = 1

let l1t3_structure =
  { template_layers = [| T0; T0; T1; T2; T2 |]; decode_target_count = 3 }

(* 4-frame cycle at 30 fps (paper Fig. 9): positions 0..3 carry layers
   T0, T2, T1, T2. Templates 3 and 4 alternate for the two T2 positions. *)
let l1t3_template ~keyframe ~frame_in_cycle =
  match frame_in_cycle land 3 with
  | 0 -> if keyframe then 0 else 1
  | 1 -> 3
  | 2 -> 2
  | _ -> 4

let layer_of_template s id =
  if id < 0 || id >= Array.length s.template_layers then
    Rtp.Wire.parse_error "AV1 template id %d out of range" id
  else s.template_layers.(id)

let layer_of_template_l1t3 id = layer_of_template l1t3_structure id

let layer_index = function T0 -> 0 | T1 -> 1 | T2 -> 2
let index_of_target = function DT_7_5fps -> 0 | DT_15fps -> 1 | DT_30fps -> 2

let target_of_index = function
  | 0 -> DT_7_5fps
  | 1 -> DT_15fps
  | 2 -> DT_30fps
  | n -> invalid_arg (Printf.sprintf "Av1.Dd.target_of_index %d" n)

let target_includes dt layer = layer_index layer <= index_of_target dt
let template_in_target_l1t3 id dt = target_includes dt (layer_of_template_l1t3 id)
let fps_of_target = function DT_7_5fps -> 7.5 | DT_15fps -> 15.0 | DT_30fps -> 30.0

let layer_code = function T0 -> 0 | T1 -> 1 | T2 -> 2

let layer_of_code = function
  | 0 -> T0
  | 1 -> T1
  | 2 -> T2
  | c -> Rtp.Wire.parse_error "AV1 layer code %d" c

let serialize t =
  let w = Rtp.Wire.Writer.create () in
  let flags =
    (if t.start_of_frame then 0x80 else 0)
    lor (if t.end_of_frame then 0x40 else 0)
    lor (t.template_id land 0x3F)
  in
  Rtp.Wire.Writer.u8 w flags;
  Rtp.Wire.Writer.u16 w t.frame_number;
  (match t.structure with
  | None -> ()
  | Some s ->
      Rtp.Wire.Writer.u8 w 0x01;
      Rtp.Wire.Writer.u8 w (Array.length s.template_layers);
      Array.iter (fun l -> Rtp.Wire.Writer.u8 w (layer_code l)) s.template_layers;
      Rtp.Wire.Writer.u8 w s.decode_target_count);
  Rtp.Wire.Writer.contents w

let parse buf =
  let r = Rtp.Wire.Reader.of_bytes buf in
  let flags = Rtp.Wire.Reader.u8 r in
  let frame_number = Rtp.Wire.Reader.u16 r in
  let structure =
    if Rtp.Wire.Reader.eof r then None
    else begin
      let marker = Rtp.Wire.Reader.u8 r in
      if marker <> 0x01 then Rtp.Wire.parse_error "AV1 extended-descriptor marker %#x" marker;
      let n = Rtp.Wire.Reader.u8 r in
      let template_layers = Array.init n (fun _ -> layer_of_code (Rtp.Wire.Reader.u8 r)) in
      let decode_target_count = Rtp.Wire.Reader.u8 r in
      Some { template_layers; decode_target_count }
    end
  in
  {
    start_of_frame = flags land 0x80 <> 0;
    end_of_frame = flags land 0x40 <> 0;
    template_id = flags land 0x3F;
    frame_number;
    structure;
  }

type fields = {
  f_start_of_frame : bool;
  f_end_of_frame : bool;
  f_template_id : int;
  f_frame_number : int;
  f_has_structure : bool;
  f_canonical : bool;
}

let frame_number_pos = 1

(* Allocation-free mirror of [parse] over a sub-range: validates exactly
   the inputs [parse] accepts (None where it would raise) without
   materializing the record or structure arrays. *)
let read_fields buf ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then None
  else if len < 3 then None
  else begin
    let u8 i = Char.code (Bytes.get buf (off + i)) in
    let flags = u8 0 in
    let frame_number = (u8 1 lsl 8) lor u8 2 in
    (* canonical = re-serializing the parsed descriptor reproduces these
       exact bytes; parse tolerates trailing bytes after the structure,
       serialize never emits them *)
    let structure_ok =
      if len = 3 then Some (false, true)
      else if u8 3 <> 0x01 then None
      else if len < 5 then None
      else begin
        let n = u8 4 in
        if len < 5 + n + 1 then None
        else begin
          let ok = ref true in
          for i = 0 to n - 1 do
            if u8 (5 + i) > 2 then ok := false
          done;
          if !ok then Some (true, len = 5 + n + 1) else None
        end
      end
    in
    match structure_ok with
    | None -> None
    | Some (has_structure, canonical) ->
        Some
          {
            f_start_of_frame = flags land 0x80 <> 0;
            f_end_of_frame = flags land 0x40 <> 0;
            f_template_id = flags land 0x3F;
            f_frame_number = frame_number;
            f_has_structure = has_structure;
            f_canonical = canonical;
          }
  end

let fields_of_t t =
  {
    f_start_of_frame = t.start_of_frame;
    f_end_of_frame = t.end_of_frame;
    f_template_id = t.template_id;
    f_frame_number = t.frame_number;
    f_has_structure = t.structure <> None;
    f_canonical = true;
  }

let frame_number_succ n = (n + 1) land 0xFFFF

let equal a b =
  a.start_of_frame = b.start_of_frame && a.end_of_frame = b.end_of_frame
  && a.template_id = b.template_id && a.frame_number = b.frame_number
  && a.structure = b.structure
