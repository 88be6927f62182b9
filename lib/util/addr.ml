type t = { ip : int; port : int }

let v ip port = { ip = ip land 0xFFFFFFFF; port = port land 0xFFFF }

let ip_of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] ->
      let part x =
        match int_of_string_opt x with
        | Some v when v >= 0 && v <= 255 -> v
        | _ -> invalid_arg ("Addr.ip_of_string: " ^ s)
      in
      (part a lsl 24) lor (part b lsl 16) lor (part c lsl 8) lor part d
  | _ -> invalid_arg ("Addr.ip_of_string: " ^ s)

(* Writes octet [v] (0..255) in decimal at [pos]; returns the next
   position. No closures: this runs for every address printed. *)
let put_digit b pos d = Bytes.unsafe_set b pos (Char.unsafe_chr (48 + d))

let put_octet b pos v =
  if v >= 100 then begin
    put_digit b pos (v / 100);
    put_digit b (pos + 1) (v / 10 mod 10);
    put_digit b (pos + 2) (v mod 10);
    pos + 3
  end
  else if v >= 10 then begin
    put_digit b pos (v / 10);
    put_digit b (pos + 1) (v mod 10);
    pos + 2
  end
  else begin
    put_digit b pos v;
    pos + 1
  end

(* octet [v] then a dot *)
let put_octet_dot b pos v =
  let pos = put_octet b pos v in
  Bytes.unsafe_set b pos '.';
  pos + 1

let ip_to_string ip =
  let b = Bytes.create 15 in
  let pos = put_octet_dot b 0 ((ip lsr 24) land 0xFF) in
  let pos = put_octet_dot b pos ((ip lsr 16) land 0xFF) in
  let pos = put_octet_dot b pos ((ip lsr 8) land 0xFF) in
  Bytes.sub_string b 0 (put_octet b pos (ip land 0xFF))

let of_string s =
  match String.rindex_opt s ':' with
  | None -> invalid_arg ("Addr.of_string: " ^ s)
  | Some i ->
      let ip = ip_of_string (String.sub s 0 i) in
      let port =
        match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
        | Some p when p >= 0 && p <= 0xFFFF -> p
        | _ -> invalid_arg ("Addr.of_string: " ^ s)
      in
      { ip; port }

let to_string t = ip_to_string t.ip ^ ":" ^ string_of_int t.port
let compare a b = if a.ip <> b.ip then compare a.ip b.ip else compare a.port b.port
let equal a b = a.ip = b.ip && a.port = b.port
