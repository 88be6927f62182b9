module Addr = Scallop_util.Addr
module Dd = Av1.Dd
module Text = Rtp.Text

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
   inspectable in traces and its wire size is honest. Every space ends a
   token, so empty tokens count: an [Error] text keeps its runs of
   spaces. A batch member is prefixed by its token count, so the flat
   token list of a batch parses unambiguously. *)

(* Every writer puts a space before each token it writes, so a member's
   token count is the number of spaces it wrote. *)
let add_int b n =
  Buffer.add_char b ' ';
  Text.add_int b n

(* an operation's name and integer fields (a flag is 0 or 1) *)
let op b name fields =
  Buffer.add_char b ' ';
  Buffer.add_string b name;
  for i = 0 to Array.length fields - 1 do
    add_int b fields.(i)
  done

(* [write b x], moved behind its token count *)
let framed write b x =
  let start = Buffer.length b in
  write b x;
  let member = Buffer.sub b start (Buffer.length b - start) in
  Buffer.truncate b start;
  add_int b (String.fold_left (fun n c -> if c = ' ' then n + 1 else n) 0 member);
  Buffer.add_string b member

let rec add_request b = function
  | New_meeting { two_party } -> op b "new-meeting" [| Bool.to_int two_party |]
  | Register_participant { meeting; participant; egress_port; sends } ->
      op b "register-participant" [| meeting; participant; egress_port; Bool.to_int sends |]
  | Register_uplink
      { meeting; sender; port; video_ssrc; audio_ssrc; full_bitrate; renditions } ->
      op b "register-uplink"
        [| meeting; sender; port; video_ssrc; audio_ssrc; full_bitrate; Array.length renditions |];
      Array.iter
        (fun (ssrc, bitrate) ->
          add_int b ssrc;
          add_int b bitrate)
        renditions
  | Register_leg { meeting; sender; uplink_port; receiver; leg_port; dst; adaptive } ->
      op b "register-leg"
        [|
          meeting; sender; Option.value uplink_port ~default:(-1); receiver; leg_port;
          dst.Addr.ip; dst.Addr.port; Bool.to_int adaptive;
        |]
  | Remove_participant { meeting; participant } ->
      op b "remove-participant" [| meeting; participant |]
  | Unregister_uplink { meeting; port } -> op b "unregister-uplink" [| meeting; port |]
  | Set_pair_target { meeting; sender; receiver; target } ->
      op b "set-pair-target" [| meeting; sender; receiver; Dd.index_of_target target |]
  | Ping -> op b "ping" [||]
  | Reset -> op b "reset" [||]
  | Batch ops ->
      op b "batch" [| List.length ops |];
      List.iter (framed add_request b) ops
  | Fenced { fence; op = request } ->
      op b "fenced" [| fence |];
      add_request b request

let rec add_reply b = function
  | Meeting_created { meeting } -> op b "meeting-created" [| meeting |]
  | Ack -> op b "ack" [||]
  | Pong { epoch } -> op b "pong" [| epoch |]
  | Error msg ->
      op b "error" [||];
      Buffer.add_char b ' ';
      Buffer.add_string b msg
  | Stale_fence { fence } -> op b "stale-fence" [| fence |]
  | Batch_reply replies ->
      op b "batch-reply" [| List.length replies |];
      List.iter (framed add_reply b) replies

let encode msg =
  let b = Buffer.create 128 in
  (match msg with
  | Request { seq; request } ->
      Buffer.add_string b "req";
      add_int b seq;
      add_request b request
  | Reply { seq; reply } ->
      Buffer.add_string b "rep";
      add_int b seq;
      add_reply b reply);
  Buffer.to_bytes b

let fail fmt = Rtp.Wire.parse_error ("Rpc.decode: " ^^ fmt)
let token c = if not (Text.next c ' ') then fail "truncated"

let int c =
  token c;
  Text.int c

let finished c = if not (Text.at_end c) then fail "trailing tokens"

let target c =
  let i = int c in
  match Dd.target_of_index i with
  | target -> target
  | exception Invalid_argument _ -> fail "bad decode target %d" i

(* a count, then that many [read]s *)
let counted read c =
  let n = int c in
  if n < 0 then fail "negative count %d" n;
  List.init n (fun _ -> read c)

(* a token count, then a member [read] consumes whole *)
let framed_member read c =
  let len = int c in
  if len < 1 then fail "bad frame length %d" len;
  token c;
  let lo = Text.lo c in
  for _ = 2 to len do
    token c
  done;
  let member = Text.sub c lo (Text.hi c) in
  let x = read member in
  finished member;
  x

let rendition c =
  let ssrc = int c in
  (ssrc, int c)

(* the next [n] integer fields, in wire order *)
let ints c n = Array.init n (fun _ -> int c)

let flag = function 0 -> false | 1 -> true | v -> fail "bad flag %d" v

let rec request c =
  token c;
  match Text.string c with
  | "new-meeting" -> New_meeting { two_party = flag (int c) }
  | "register-participant" ->
      let f = ints c 4 in
      Register_participant
        { meeting = f.(0); participant = f.(1); egress_port = f.(2); sends = flag f.(3) }
  | "register-uplink" ->
      let f = ints c 6 in
      let renditions = Array.of_list (counted rendition c) in
      Register_uplink
        {
          meeting = f.(0); sender = f.(1); port = f.(2); video_ssrc = f.(3);
          audio_ssrc = f.(4); full_bitrate = f.(5); renditions;
        }
  | "register-leg" ->
      let f = ints c 8 in
      Register_leg
        {
          meeting = f.(0); sender = f.(1); uplink_port = (if f.(2) < 0 then None else Some f.(2));
          receiver = f.(3); leg_port = f.(4); dst = Addr.v f.(5) f.(6); adaptive = flag f.(7);
        }
  | "remove-participant" ->
      let f = ints c 2 in
      Remove_participant { meeting = f.(0); participant = f.(1) }
  | "unregister-uplink" ->
      let f = ints c 2 in
      Unregister_uplink { meeting = f.(0); port = f.(1) }
  | "set-pair-target" ->
      let f = ints c 3 in
      Set_pair_target { meeting = f.(0); sender = f.(1); receiver = f.(2); target = target c }
  | "ping" -> Ping
  | "reset" -> Reset
  | "batch" -> Batch (counted (framed_member request) c)
  | "fenced" ->
      let fence = int c in
      Fenced { fence; op = request c }
  | op -> fail "unknown request %S" op

let rec reply c =
  token c;
  match Text.string c with
  | "meeting-created" -> Meeting_created { meeting = int c }
  | "ack" -> Ack
  | "pong" -> Pong { epoch = int c }
  | "stale-fence" -> Stale_fence { fence = int c }
  | "batch-reply" -> Batch_reply (counted (framed_member reply) c)
  | "error" -> Error (Text.rest c)
  | op -> fail "unknown reply %S" op

(* The cursor reads the payload in place: nothing is written to it while
   it is parsed, and every string the result keeps is a copy. *)
let decode bytes =
  let c = Text.of_string (Bytes.unsafe_to_string bytes) in
  token c;
  let req = Text.is c "req" in
  if not (req || Text.is c "rep") then fail "unknown message tag %S" (Text.string c);
  let seq = int c in
  let msg = if req then Request { seq; request = request c } else Reply { seq; reply = reply c } in
  finished c;
  msg
