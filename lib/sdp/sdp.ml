module Addr = Scallop_util.Addr
module Text = Rtp.Text

type media_kind = Audio | Video | Screen
type direction = Sendrecv | Sendonly | Recvonly | Inactive

type candidate = {
  foundation : string;
  component : int;
  priority : int;
  addr : Addr.t;
  typ : string;
}

type media = {
  kind : media_kind;
  mid : string;
  payload_type : int;
  codec : string;
  clock_rate : int;
  ssrc : int;
  cname : string;
  direction : direction;
  candidates : candidate list;
  extmaps : (int * string) list;
  svc_mode : string option;
}

type t = {
  session_id : int;
  origin_addr : Addr.t;
  ice_ufrag : string;
  ice_pwd : string;
  medias : media list;
}

let host_candidate addr = { foundation = "1"; component = 1; priority = 2130706431; addr; typ = "host" }

let make_media ?(direction = Sendrecv) ?(extmaps = []) ?(svc_mode = None) ~kind ~mid
    ~payload_type ~codec ~clock_rate ~ssrc ~cname ~candidates () =
  { kind; mid; payload_type; codec; clock_rate; ssrc; cname; direction; candidates; extmaps; svc_mode }

let media_kind_to_string = function Audio -> "audio" | Video -> "video" | Screen -> "screen"

let media_kind_of_string = function
  | "audio" -> Audio
  | "video" -> Video
  | "screen" -> Screen
  | s -> Rtp.Wire.parse_error "unknown media kind %S" s

let direction_to_string = function
  | Sendrecv -> "sendrecv"
  | Sendonly -> "sendonly"
  | Recvonly -> "recvonly"
  | Inactive -> "inactive"

let direction_of_string = function
  | "sendrecv" -> Some Sendrecv
  | "sendonly" -> Some Sendonly
  | "recvonly" -> Some Recvonly
  | "inactive" -> Some Inactive
  | _ -> None

(* --- printing -------------------------------------------------------------

   Straight into one buffer: no format interpretation, integers written
   digit by digit. The wire text is fixed byte for byte (test_sdp pins an
   offer and an answer). *)

(* Top-level writers taking the buffer: a local closure would be
   allocated on every call. *)
let add_prefixed_int b prefix n =
  Buffer.add_string b prefix;
  Text.add_int b n

let add_extmap b (id, uri) =
  add_prefixed_int b "a=extmap:" id;
  Buffer.add_char b ' ';
  Buffer.add_string b uri;
  Buffer.add_char b '\n'

let add_candidate b c =
  Buffer.add_string b "a=candidate:";
  Buffer.add_string b c.foundation;
  add_prefixed_int b " " c.component;
  add_prefixed_int b " udp " c.priority;
  Buffer.add_char b ' ';
  Buffer.add_string b (Addr.ip_to_string c.addr.ip);
  add_prefixed_int b " " c.addr.port;
  Buffer.add_string b " typ ";
  Buffer.add_string b c.typ;
  Buffer.add_char b '\n'

let add_media b origin_ip m =
  Buffer.add_string b "m=";
  Buffer.add_string b (media_kind_to_string m.kind);
  add_prefixed_int b " " (match m.candidates with c :: _ -> c.addr.port | [] -> 9);
  add_prefixed_int b " UDP/RTP " m.payload_type;
  Buffer.add_string b "\nc=IN IP4 ";
  Buffer.add_string b origin_ip;
  Buffer.add_string b "\na=mid:";
  Buffer.add_string b m.mid;
  add_prefixed_int b "\na=rtpmap:" m.payload_type;
  Buffer.add_char b ' ';
  Buffer.add_string b m.codec;
  add_prefixed_int b "/" m.clock_rate;
  add_prefixed_int b "\na=ssrc:" m.ssrc;
  Buffer.add_string b " cname:";
  Buffer.add_string b m.cname;
  Buffer.add_string b "\na=";
  Buffer.add_string b (direction_to_string m.direction);
  Buffer.add_char b '\n';
  List.iter (add_extmap b) m.extmaps;
  (match m.svc_mode with
  | None -> ()
  | Some s ->
      Buffer.add_string b "a=svc:";
      Buffer.add_string b s;
      Buffer.add_char b '\n');
  List.iter (add_candidate b) m.candidates

let to_string t =
  let b = Buffer.create 512 in
  let origin_ip = Addr.ip_to_string t.origin_addr.ip in
  add_prefixed_int b "v=0\no=- " t.session_id;
  Buffer.add_string b " 2 IN IP4 ";
  Buffer.add_string b origin_ip;
  Buffer.add_string b "\ns=-\nt=0 0\na=ice-ufrag:";
  Buffer.add_string b t.ice_ufrag;
  Buffer.add_string b "\na=ice-pwd:";
  Buffer.add_string b t.ice_pwd;
  Buffer.add_char b '\n';
  List.iter (add_media b origin_ip) t.medias;
  Buffer.contents b

(* --- parsing ------------------------------------------------------------

   Line by line through a text cursor. A line is the text between two
   newlines with surrounding whitespace trimmed (empty lines skipped); a
   field list is its space-separated tokens, empty ones dropped. A token
   is copied into a string only to become part of the result or to be
   matched against the names it may take, and each media section is
   built once, when the next one (or the end) closes it. A malformed
   line raises [Wire.Parse_error] naming it. *)

(* the open media section *)
type section = {
  s_kind : media_kind;
  mutable s_mid : string;
  mutable s_payload_type : int;
  mutable s_codec : string;
  mutable s_clock_rate : int;
  mutable s_ssrc : int;
  mutable s_cname : string;
  mutable s_direction : direction;
  mutable s_candidates_rev : candidate list;
  mutable s_extmaps_rev : (int * string) list;
  mutable s_svc_mode : string option;
}

type parse_state = {
  mutable session_id : int;
  mutable origin_ip : int;
  mutable ice_ufrag : string;
  mutable ice_pwd : string;
  mutable medias_rev : media list;
  mutable section : section option;
}

let bad what = Rtp.Wire.parse_error "%s" what

(* the line's next field: a run of spaces separates two *)
let rec field line =
  if not (Text.next line ' ') then bad "missing field" else if Text.is line "" then field line

let int_field line =
  field line;
  Text.int line

let string_field line =
  field line;
  Text.string line

let expect line lit =
  field line;
  if not (Text.is line lit) then bad ("expected " ^ lit)

let rec no_more line =
  if Text.next line ' ' then if Text.is line "" then no_more line else bad "extra field"

(* the line's last field [<a><sep><b>]: the line narrows to it, [<a>] read *)
let split_last line sep =
  field line;
  let lo = Text.lo line and hi = Text.hi line in
  no_more line;
  Text.reset line lo hi;
  ignore (Text.next line sep)

let finish_section st =
  match st.section with
  | None -> ()
  | Some s ->
      st.medias_rev <-
        {
          kind = s.s_kind;
          mid = s.s_mid;
          payload_type = s.s_payload_type;
          codec = s.s_codec;
          clock_rate = s.s_clock_rate;
          ssrc = s.s_ssrc;
          cname = s.s_cname;
          direction = s.s_direction;
          candidates = List.rev s.s_candidates_rev;
          extmaps = List.rev s.s_extmaps_rev;
          svc_mode = s.s_svc_mode;
        }
        :: st.medias_rev

let section st =
  match st.section with Some s -> s | None -> bad "attribute outside media section"

(* [o=<user> <session> <version> IN IP4 <address>] *)
let parse_origin st line =
  field line;
  st.session_id <- int_field line;
  field line;
  expect line "IN";
  expect line "IP4";
  field line;
  st.origin_ip <- Text.ip line;
  no_more line

(* [m=<kind> <port> UDP/RTP <payload type>] opens a section *)
let parse_media st line =
  finish_section st;
  let s_kind = media_kind_of_string (string_field line) in
  field line;
  expect line "UDP/RTP";
  let s_payload_type = int_field line in
  no_more line;
  st.section <-
    Some
      {
        s_kind;
        s_mid = "";
        s_payload_type;
        s_codec = "";
        s_clock_rate = 0;
        s_ssrc = 0;
        s_cname = "";
        s_direction = Sendrecv;
        s_candidates_rev = [];
        s_extmaps_rev = [];
        s_svc_mode = None;
      }

(* [<foundation> <component> udp <priority> <address> <port> typ <type>] *)
let parse_candidate line =
  let foundation = string_field line in
  let component = int_field line in
  expect line "udp";
  let priority = int_field line in
  field line;
  let ip = Text.ip line in
  let port = int_field line in
  expect line "typ";
  let typ = string_field line in
  no_more line;
  { foundation; component; priority; addr = Addr.v ip port; typ }

(* [a=<flag>] or [a=<key>:<value>]; unknown ones are ignored, as real
   stacks do *)
let parse_attribute st line =
  ignore (Text.next line ':');
  if Text.at_end line then
    Option.iter (fun d -> (section st).s_direction <- d) (direction_of_string (Text.string line))
  else
    match Text.string line with
    | "ice-ufrag" -> st.ice_ufrag <- Text.rest line
    | "ice-pwd" -> st.ice_pwd <- Text.rest line
    | "mid" -> (section st).s_mid <- Text.rest line
    | "rtpmap" ->
        (* <payload type> <codec>/<clock rate> *)
        let payload_type = int_field line in
        split_last line '/';
        let codec = Text.string line in
        if not (Text.next line '/' && Text.at_end line) then bad "bad rtpmap";
        let s = section st in
        s.s_clock_rate <- Text.int line;
        s.s_codec <- codec;
        s.s_payload_type <- payload_type
    | "ssrc" ->
        (* <ssrc> cname:<cname> *)
        let ssrc = int_field line in
        split_last line ':';
        if not (Text.is line "cname" && Text.next line ':' && Text.at_end line) then
          bad "bad ssrc line";
        let s = section st in
        s.s_ssrc <- ssrc;
        s.s_cname <- Text.string line
    | "extmap" ->
        (* <id> <uri> *)
        let id = int_field line in
        let uri = string_field line in
        no_more line;
        let s = section st in
        s.s_extmaps_rev <- (id, uri) :: s.s_extmaps_rev
    | "svc" -> (section st).s_svc_mode <- Some (Text.rest line)
    | "candidate" ->
        let c = parse_candidate line in
        let s = section st in
        s.s_candidates_rev <- c :: s.s_candidates_rev
    | _ -> ()

(* [<type>=<value>], the type one letter; v=, s=, t=, c= and the rest
   carry nothing kept *)
let parse_line st line =
  if not (Text.next line '=' && (not (Text.at_end line)) && Text.hi line = Text.lo line + 1)
  then bad "bad SDP line";
  if Text.is line "o" then parse_origin st line
  else if Text.is line "m" then parse_media st line
  else if Text.is line "a" then parse_attribute st line

let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false
let rec trim_lo text lo hi = if lo < hi && is_space text.[lo] then trim_lo text (lo + 1) hi else lo
let rec trim_hi text lo hi =
  if hi > lo && is_space text.[hi - 1] then trim_hi text lo (hi - 1) else hi

let of_string text =
  let st =
    { session_id = 0; origin_ip = 0; ice_ufrag = ""; ice_pwd = ""; medias_rev = []; section = None }
  in
  let lines = Text.of_string text and line = Text.of_string text in
  while Text.next lines '\n' do
    let lo = trim_lo text (Text.lo lines) (Text.hi lines) in
    let hi = trim_hi text lo (Text.hi lines) in
    if hi > lo then begin
      Text.reset line lo hi;
      try parse_line st line
      with Rtp.Wire.Parse_error what ->
        Rtp.Wire.parse_error "Sdp.of_string: %s in %S" what (String.sub text lo (hi - lo))
    end
  done;
  finish_section st;
  {
    session_id = st.session_id;
    origin_addr = Addr.v st.origin_ip 0;
    ice_ufrag = st.ice_ufrag;
    ice_pwd = st.ice_pwd;
    medias = List.rev st.medias_rev;
  }

let rewrite_candidates t sfu_addr =
  {
    t with
    medias = List.map (fun m -> { m with candidates = [ host_candidate sfu_addr ] }) t.medias;
  }

let mirror = function
  | Sendrecv -> Sendrecv
  | Sendonly -> Recvonly
  | Recvonly -> Sendonly
  | Inactive -> Inactive

let answer ~offer ~session_id ~origin ~ice_ufrag ~ice_pwd ~media_for =
  let medias =
    List.map
      (fun (offered : media) ->
        match media_for offered with
        | None -> { offered with direction = Inactive; candidates = [] }
        | Some m ->
            if m.payload_type <> offered.payload_type || m.codec <> offered.codec then
              failwith "Sdp.answer: codec/payload type must match the offer";
            { m with kind = offered.kind; mid = offered.mid; direction = mirror offered.direction })
      offer.medias
  in
  { session_id; origin_addr = origin; ice_ufrag; ice_pwd; medias }

let equal a b = a = b
