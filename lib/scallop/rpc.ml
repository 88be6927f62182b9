module Addr = Scallop_util.Addr
module Dd = Av1.Dd

type request =
  | New_meeting of { two_party : bool }
  | Register_participant of {
      meeting : int;
      participant : int;
      egress_port : int;
      sends : bool;
    }
  | Register_uplink of {
      meeting : int;
      sender : int;
      port : int;
      video_ssrc : int;
      audio_ssrc : int;
      full_bitrate : int;
      renditions : (int * int) array;
    }
  | Register_leg of {
      meeting : int;
      sender : int;
      uplink_port : int option;
      receiver : int;
      leg_port : int;
      dst : Addr.t;
      adaptive : bool;
    }
  | Remove_participant of { meeting : int; participant : int }
  | Unregister_uplink of { meeting : int; port : int }
  | Set_pair_target of {
      meeting : int;
      sender : int;
      receiver : int;
      target : Dd.decode_target;
    }
  | Ping
  | Reset
  | Batch of request list
  | Fenced of { fence : int; op : request }

type reply =
  | Meeting_created of { meeting : int }
  | Ack
  | Pong of { epoch : int }
  | Error of string
  | Batch_reply of reply list
  | Stale_fence of { fence : int }

type message =
  | Request of { seq : int; request : request }
  | Reply of { seq : int; reply : reply }

exception Decode_error of string

let rec request_name = function
  | New_meeting _ -> "new-meeting"
  | Register_participant _ -> "register-participant"
  | Register_uplink _ -> "register-uplink"
  | Register_leg _ -> "register-leg"
  | Remove_participant _ -> "remove-participant"
  | Unregister_uplink _ -> "unregister-uplink"
  | Set_pair_target _ -> "set-pair-target"
  | Ping -> "ping"
  | Reset -> "reset"
  | Batch _ -> "batch"
  | Fenced { op; _ } -> request_name op

(* --- wire codec --------------------------------------------------------------

   Space-separated text, one message per datagram: a direction tag, the
   sequence number, the operation name, then the operation's fields in
   declaration order. Textual like the SDP path so control traffic is
   inspectable in traces and its wire size is honest. *)

let bool_field b = if b then "1" else "0"

(* Frame one sub-message inside a batch: retokenize its encoding (an
   [Error] reply may itself contain spaces) and prefix the token count,
   so the flat outer field list parses unambiguously. Only a field with a
   space splits; the tokens are those of the joined fields, so
   round-trips are exact. *)
let framed fields =
  let tokens =
    List.concat_map
      (fun f -> if String.contains f ' ' then String.split_on_char ' ' f else [ f ])
      fields
  in
  string_of_int (List.length tokens) :: tokens

let rec encode_request r =
  match r with
  | New_meeting { two_party } -> [ "new-meeting"; bool_field two_party ]
  | Register_participant { meeting; participant; egress_port; sends } ->
      [
        "register-participant";
        string_of_int meeting;
        string_of_int participant;
        string_of_int egress_port;
        bool_field sends;
      ]
  | Register_uplink
      { meeting; sender; port; video_ssrc; audio_ssrc; full_bitrate; renditions } ->
      [
        "register-uplink";
        string_of_int meeting;
        string_of_int sender;
        string_of_int port;
        string_of_int video_ssrc;
        string_of_int audio_ssrc;
        string_of_int full_bitrate;
        string_of_int (Array.length renditions);
      ]
      @ List.concat_map
          (fun (ssrc, bitrate) -> [ string_of_int ssrc; string_of_int bitrate ])
          (Array.to_list renditions)
  | Register_leg { meeting; sender; uplink_port; receiver; leg_port; dst; adaptive } ->
      [
        "register-leg";
        string_of_int meeting;
        string_of_int sender;
        string_of_int (Option.value uplink_port ~default:(-1));
        string_of_int receiver;
        string_of_int leg_port;
        string_of_int dst.Addr.ip;
        string_of_int dst.Addr.port;
        bool_field adaptive;
      ]
  | Remove_participant { meeting; participant } ->
      [ "remove-participant"; string_of_int meeting; string_of_int participant ]
  | Unregister_uplink { meeting; port } ->
      [ "unregister-uplink"; string_of_int meeting; string_of_int port ]
  | Set_pair_target { meeting; sender; receiver; target } ->
      [
        "set-pair-target";
        string_of_int meeting;
        string_of_int sender;
        string_of_int receiver;
        string_of_int (Dd.index_of_target target);
      ]
  | Ping -> [ "ping" ]
  | Reset -> [ "reset" ]
  | Batch ops ->
      "batch"
      :: string_of_int (List.length ops)
      :: List.concat_map (fun op -> framed (encode_request op)) ops
  | Fenced { fence; op } -> "fenced" :: string_of_int fence :: encode_request op

let rec encode_reply = function
  | Meeting_created { meeting } -> [ "meeting-created"; string_of_int meeting ]
  | Ack -> [ "ack" ]
  | Pong { epoch } -> [ "pong"; string_of_int epoch ]
  | Error msg -> [ "error"; msg ]
  | Stale_fence { fence } -> [ "stale-fence"; string_of_int fence ]
  | Batch_reply replies ->
      "batch-reply"
      :: string_of_int (List.length replies)
      :: List.concat_map (fun r -> framed (encode_reply r)) replies

let encode msg =
  let fields =
    match msg with
    | Request { seq; request } -> "req" :: string_of_int seq :: encode_request request
    | Reply { seq; reply } -> "rep" :: string_of_int seq :: encode_reply reply
  in
  Bytes.of_string (String.concat " " fields)

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

let int_field name s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> fail "bad %s field %S" name s

let bool_of_field name = function
  | "0" -> false
  | "1" -> true
  | s -> fail "bad %s field %S" name s

(* Parse [count] token-count-prefixed groups, consuming the whole list
   (a batch is always the last element of its message). *)
let framed_groups name count tokens =
  let rec take k acc rest =
    if k = 0 then (List.rev acc, rest)
    else
      match rest with
      | tok :: tl -> take (k - 1) (tok :: acc) tl
      | [] -> fail "truncated %s frame" name
  in
  let rec go n tokens acc =
    if n = 0 then
      if tokens = [] then List.rev acc else fail "%s: trailing tokens" name
    else
      match tokens with
      | len :: rest ->
          let len = int_field (name ^ " frame length") len in
          if len < 0 then fail "%s: negative frame length" name;
          let group, rest = take len [] rest in
          go (n - 1) rest (group :: acc)
      | [] -> fail "truncated %s" name
  in
  go count tokens []

let rec decode_request = function
  | [ "new-meeting"; tp ] -> New_meeting { two_party = bool_of_field "two_party" tp }
  | [ "register-participant"; m; p; e; s ] ->
      Register_participant
        {
          meeting = int_field "meeting" m;
          participant = int_field "participant" p;
          egress_port = int_field "egress_port" e;
          sends = bool_of_field "sends" s;
        }
  | "register-uplink" :: m :: s :: port :: v :: a :: f :: n :: rest ->
      let n = int_field "renditions" n in
      if List.length rest <> 2 * n then fail "register-uplink: rendition count mismatch";
      let rec pairs = function
        | [] -> []
        | ssrc :: bitrate :: tl ->
            (int_field "rendition ssrc" ssrc, int_field "rendition bitrate" bitrate)
            :: pairs tl
        | [ _ ] -> fail "register-uplink: odd rendition list"
      in
      Register_uplink
        {
          meeting = int_field "meeting" m;
          sender = int_field "sender" s;
          port = int_field "port" port;
          video_ssrc = int_field "video_ssrc" v;
          audio_ssrc = int_field "audio_ssrc" a;
          full_bitrate = int_field "full_bitrate" f;
          renditions = Array.of_list (pairs rest);
        }
  | [ "register-leg"; m; s; up; r; lp; ip; port; ad ] ->
      let up = int_field "uplink_port" up in
      Register_leg
        {
          meeting = int_field "meeting" m;
          sender = int_field "sender" s;
          uplink_port = (if up < 0 then None else Some up);
          receiver = int_field "receiver" r;
          leg_port = int_field "leg_port" lp;
          dst = Addr.v (int_field "dst ip" ip) (int_field "dst port" port);
          adaptive = bool_of_field "adaptive" ad;
        }
  | [ "remove-participant"; m; p ] ->
      Remove_participant
        { meeting = int_field "meeting" m; participant = int_field "participant" p }
  | [ "unregister-uplink"; m; p ] ->
      Unregister_uplink { meeting = int_field "meeting" m; port = int_field "port" p }
  | [ "set-pair-target"; m; s; r; t ] ->
      Set_pair_target
        {
          meeting = int_field "meeting" m;
          sender = int_field "sender" s;
          receiver = int_field "receiver" r;
          target = Dd.target_of_index (int_field "target" t);
        }
  | [ "ping" ] -> Ping
  | [ "reset" ] -> Reset
  | "batch" :: n :: rest ->
      Batch (List.map decode_request (framed_groups "batch" (int_field "batch size" n) rest))
  | "fenced" :: fence :: rest ->
      Fenced { fence = int_field "fence" fence; op = decode_request rest }
  | op :: _ -> fail "unknown or malformed request %S" op
  | [] -> fail "empty request"

let rec decode_reply = function
  | [ "meeting-created"; m ] -> Meeting_created { meeting = int_field "meeting" m }
  | [ "ack" ] -> Ack
  | [ "pong"; e ] -> Pong { epoch = int_field "epoch" e }
  | [ "stale-fence"; f ] -> Stale_fence { fence = int_field "fence" f }
  | "batch-reply" :: n :: rest ->
      Batch_reply
        (List.map decode_reply (framed_groups "batch-reply" (int_field "batch size" n) rest))
  | "error" :: rest -> Error (String.concat " " rest)
  | op :: _ -> fail "unknown or malformed reply %S" op
  | [] -> fail "empty reply"

let decode bytes =
  match String.split_on_char ' ' (Bytes.to_string bytes) with
  | "req" :: seq :: rest ->
      Request { seq = int_field "seq" seq; request = decode_request rest }
  | "rep" :: seq :: rest -> Reply { seq = int_field "seq" seq; reply = decode_reply rest }
  | tag :: _ -> fail "unknown message tag %S" tag
  | [] -> fail "empty message"
