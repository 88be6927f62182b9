module Addr = Scallop_util.Addr

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
  | s -> failwith ("Sdp: unknown media kind " ^ s)

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

(* [n <= 0], in decimal without its sign *)
let rec add_digits b n =
  if n <= -10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

(* as [string_of_int] prints it; [min_int] never negated *)
let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_digits b n
  end
  else add_digits b (-n)

(* Top-level writers taking the buffer: a local closure would be
   allocated on every call. *)
let add_prefixed_int b prefix n =
  Buffer.add_string b prefix;
  add_int b n

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

   One pass over the text by index. A line is the text between two
   newlines with surrounding whitespace trimmed (empty lines skipped); a
   field list is its space-separated tokens, empty ones dropped. A token
   is copied into a string only to become part of the result or to be
   matched against the names it may take, and each media section is
   built once, when the next one (or the end) closes it. A malformed
   line raises [Failure]. *)

type parse_state = {
  text : string;
  tok : int array;  (* start, stop of each token of the current field list *)
  mutable line_lo : int;  (* the current line, trimmed: [line_lo, line_hi) *)
  mutable line_hi : int;
  mutable session_id : int;
  mutable origin_ip : int;
  mutable ice_ufrag : string;
  mutable ice_pwd : string;
  mutable medias_rev : media list;
  (* the open media section, if [in_media] *)
  mutable in_media : bool;
  mutable c_kind : media_kind;
  mutable c_mid : string;
  mutable c_payload_type : int;
  mutable c_codec : string;
  mutable c_clock_rate : int;
  mutable c_ssrc : int;
  mutable c_cname : string;
  mutable c_direction : direction;
  mutable c_candidates_rev : candidate list;
  mutable c_extmaps_rev : (int * string) list;
  mutable c_svc_mode : string option;
}

let max_tokens = 8

let fail_line st what =
  let line = String.sub st.text st.line_lo (st.line_hi - st.line_lo) in
  failwith (Printf.sprintf "Sdp.of_string: %s in %S" what line)

(* The helpers below are top-level and return plain values, so a scan
   allocates only what the result keeps. *)

(* the first [c] in [text.[i, hi)], or -1 *)
let rec find text i hi c =
  if i >= hi then -1 else if String.unsafe_get text i = c then i else find text (i + 1) hi c

let rec token_end text i hi =
  if i < hi && String.unsafe_get text i <> ' ' then token_end text (i + 1) hi else i

let rec tokens_from st hi n count i =
  if i >= hi then count = n
  else if String.unsafe_get st.text i = ' ' then tokens_from st hi n count (i + 1)
  else if count = n then false
  else begin
    let j = token_end st.text i hi in
    st.tok.(2 * count) <- i;
    st.tok.((2 * count) + 1) <- j;
    tokens_from st hi n (count + 1) j
  end

(* Tokenize [text.[lo, hi)] on spaces into [st.tok]; [true] iff there
   are exactly [n] tokens. *)
let fields st lo hi n = tokens_from st hi n 0 lo

let tok_lo st k = st.tok.(2 * k)
let tok_hi st k = st.tok.((2 * k) + 1)

let rec same_from text lo lit i =
  i = String.length lit || (text.[lo + i] = lit.[i] && same_from text lo lit (i + 1))

let span_is text lo hi lit = hi - lo = String.length lit && same_from text lo lit 0
let span_str text lo hi = String.sub text lo (hi - lo)
let tok_is st k lit = span_is st.text (tok_lo st k) (tok_hi st k) lit
let tok_str st k = span_str st.text (tok_lo st k) (tok_hi st k)

(* decimal digits of [text.[i, hi)] onto [acc]; -1 at a non-digit *)
let rec digits text i hi acc =
  if i = hi then acc
  else
    match String.unsafe_get text i with
    | '0' .. '9' as c -> digits text (i + 1) hi ((acc * 10) + Char.code c - 48)
    | _ -> -1

(* [int_of_string] of the span, without the copy for plain decimals
   short enough not to overflow *)
let span_int text lo hi =
  let v = if hi > lo && hi - lo <= 18 then digits text lo hi 0 else -1 in
  if v >= 0 then v else int_of_string (span_str text lo hi)

let tok_int st k = span_int st.text (tok_lo st k) (tok_hi st k)

(* dotted quad of up-to-3-digit decimals at [i], octet [k] of 4 onto
   [acc]; -1 for anything else *)
let rec quad text i hi k acc =
  let stop = if k = 3 then hi else find text i hi '.' in
  let v = if stop > i && stop - i <= 3 then digits text i stop 0 else -1 in
  if v < 0 || v > 255 then -1
  else if k = 3 then (acc lsl 8) lor v
  else quad text (stop + 1) hi (k + 1) ((acc lsl 8) lor v)

(* [Addr.ip_of_string] of the span, failing on the line *)
let span_ip st lo hi what =
  match quad st.text lo hi 0 0 with
  | -1 -> (
      match Addr.ip_of_string (span_str st.text lo hi) with
      | ip -> ip
      | exception Invalid_argument _ -> fail_line st what)
  | ip -> ip

let finish_current st =
  if st.in_media then begin
    st.medias_rev <-
      {
        kind = st.c_kind;
        mid = st.c_mid;
        payload_type = st.c_payload_type;
        codec = st.c_codec;
        clock_rate = st.c_clock_rate;
        ssrc = st.c_ssrc;
        cname = st.c_cname;
        direction = st.c_direction;
        candidates = List.rev st.c_candidates_rev;
        extmaps = List.rev st.c_extmaps_rev;
        svc_mode = st.c_svc_mode;
      }
      :: st.medias_rev;
    st.in_media <- false
  end

let require_media st = if not st.in_media then fail_line st "attribute outside media section"

(* [o=<user> <session> <version> IN IP4 <address>] *)
let parse_origin st lo hi =
  if not (fields st lo hi 6 && tok_is st 3 "IN" && tok_is st 4 "IP4") then
    fail_line st "bad origin";
  st.session_id <- tok_int st 1;
  st.origin_ip <- span_ip st (tok_lo st 5) (tok_hi st 5) "bad origin address"

(* [m=<kind> <port> UDP/RTP <payload type>] opens a section *)
let parse_media st lo hi =
  finish_current st;
  if not (fields st lo hi 4 && tok_is st 2 "UDP/RTP") then fail_line st "bad media line";
  let payload_type = tok_int st 3 in
  st.c_kind <- media_kind_of_string (tok_str st 0);
  st.c_payload_type <- payload_type;
  st.c_mid <- "";
  st.c_codec <- "";
  st.c_clock_rate <- 0;
  st.c_ssrc <- 0;
  st.c_cname <- "";
  st.c_direction <- Sendrecv;
  st.c_candidates_rev <- [];
  st.c_extmaps_rev <- [];
  st.c_svc_mode <- None;
  st.in_media <- true

(* [<foundation> <component> udp <priority> <address> <port> typ <type>] *)
let parse_candidate st lo hi =
  if not (fields st lo hi 8 && tok_is st 2 "udp" && tok_is st 6 "typ") then
    fail_line st "bad candidate";
  let port = tok_int st 5 in
  let ip = span_ip st (tok_lo st 4) (tok_hi st 4) "bad candidate address" in
  let priority = tok_int st 3 in
  let component = tok_int st 1 in
  { foundation = tok_str st 0; component; priority; addr = Addr.v ip port; typ = tok_str st 7 }

(* [a=<flag>] or [a=<key>:<value>]; unknown ones are ignored, as real
   stacks do *)
let parse_attribute st lo hi =
  let text = st.text in
  let colon = find text lo hi ':' in
  if colon < 0 then
    match direction_of_string (span_str text lo hi) with
    | Some d ->
        require_media st;
        st.c_direction <- d
    | None -> ()
  else
    let vlo = colon + 1 in
    match span_str text lo colon with
    | "ice-ufrag" -> st.ice_ufrag <- span_str text vlo hi
    | "ice-pwd" -> st.ice_pwd <- span_str text vlo hi
    | "mid" ->
        require_media st;
        st.c_mid <- span_str text vlo hi
    | "rtpmap" ->
        (* <payload type> <codec>/<clock rate> *)
        if not (fields st vlo hi 2) then fail_line st "bad rtpmap";
        let clo = tok_lo st 1 and chi = tok_hi st 1 in
        let slash = find text clo chi '/' in
        if slash < 0 || find text (slash + 1) chi '/' >= 0 then fail_line st "bad rtpmap";
        require_media st;
        st.c_clock_rate <- span_int text (slash + 1) chi;
        st.c_codec <- span_str text clo slash;
        st.c_payload_type <- tok_int st 0
    | "ssrc" ->
        (* <ssrc> cname:<cname> *)
        if not (fields st vlo hi 2) then fail_line st "bad ssrc line";
        let clo = tok_lo st 1 and chi = tok_hi st 1 in
        let c = find text clo chi ':' in
        if c < 0 || (not (span_is text clo c "cname")) || find text (c + 1) chi ':' >= 0 then
          fail_line st "bad ssrc line";
        require_media st;
        st.c_ssrc <- tok_int st 0;
        st.c_cname <- span_str text (c + 1) chi
    | "extmap" ->
        (* <id> <uri> *)
        if not (fields st vlo hi 2) then fail_line st "bad extmap";
        require_media st;
        let id = tok_int st 0 in
        st.c_extmaps_rev <- (id, tok_str st 1) :: st.c_extmaps_rev
    | "svc" ->
        require_media st;
        st.c_svc_mode <- Some (span_str text vlo hi)
    | "candidate" ->
        let c = parse_candidate st vlo hi in
        require_media st;
        st.c_candidates_rev <- c :: st.c_candidates_rev
    | _ -> ()

let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let parse_line st =
  let lo = st.line_lo and hi = st.line_hi in
  if hi - lo < 2 || st.text.[lo + 1] <> '=' then fail_line st "bad SDP line";
  match st.text.[lo] with
  | 'o' -> parse_origin st (lo + 2) hi
  | 'm' -> parse_media st (lo + 2) hi
  | 'a' -> parse_attribute st (lo + 2) hi
  | _ -> () (* v=, s=, t=, c= and the rest carry nothing kept *)

(* the lines from [start] on, each trimmed; empty ones skipped *)
let rec parse_lines st start =
  let text = st.text and len = String.length st.text in
  if start <= len then begin
    let stop = match find text start len '\n' with -1 -> len | i -> i in
    let lo = ref start and hi = ref stop in
    while !lo < !hi && is_space text.[!lo] do
      incr lo
    done;
    while !hi > !lo && is_space text.[!hi - 1] do
      decr hi
    done;
    if !hi > !lo then begin
      st.line_lo <- !lo;
      st.line_hi <- !hi;
      parse_line st
    end;
    parse_lines st (stop + 1)
  end

let of_string text =
  let st =
    {
      text;
      tok = Array.make (2 * max_tokens) 0;
      line_lo = 0;
      line_hi = 0;
      session_id = 0;
      origin_ip = 0;
      ice_ufrag = "";
      ice_pwd = "";
      medias_rev = [];
      in_media = false;
      c_kind = Audio;
      c_mid = "";
      c_payload_type = 0;
      c_codec = "";
      c_clock_rate = 0;
      c_ssrc = 0;
      c_cname = "";
      c_direction = Sendrecv;
      c_candidates_rev = [];
      c_extmaps_rev = [];
      c_svc_mode = None;
    }
  in
  parse_lines st 0;
  finish_current st;
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
