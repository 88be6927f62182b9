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

let ip_to_string ip =
  Printf.sprintf "%d.%d.%d.%d" ((ip lsr 24) land 0xFF) ((ip lsr 16) land 0xFF)
    ((ip lsr 8) land 0xFF) (ip land 0xFF)

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

let to_string t = Printf.sprintf "%s:%d" (ip_to_string t.ip) t.port
let compare a b = if a.ip <> b.ip then compare a.ip b.ip else compare a.port b.port
let equal a b = a.ip = b.ip && a.port = b.port
