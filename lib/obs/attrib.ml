type severity = Error | Warning

type cause =
  | Link_loss of { link : string; drops : int; victim_hits : int }
  | Link_queue of { link : string; drops : int; victim_hits : int }
  | Pre_invalidation of { pre : string; flushes : int }
  | Resync of { agent : int; ops : int }
  | Rpc_retries of { client : string; spans : int; attempts : int }

type finding = {
  f_severity : severity;
  f_component : string;
  f_kind : string;
  f_subject : string;
  f_explanation : string;
  f_victim : Qoe.key;
  f_cause : cause;
  f_trace_ids : int list;
  f_first_event : int;
  f_last_event : int;
  f_from_ns : int;
  f_until_ns : int;
  f_truncated : bool;
}

let severity_str = function Error -> "error" | Warning -> "warning"

let severity_of_str = function
  | "error" -> Some Error
  | "warning" -> Some Warning
  | _ -> None

module IntSet = Set.Make (Int)

let arg_s args k =
  List.fold_left
    (fun acc (name, v) ->
      match (acc, v) with
      | None, Trace.S s when name = k -> Some s
      | _ -> acc)
    None args

let arg_i args k =
  List.fold_left
    (fun acc (name, v) ->
      match (acc, v) with
      | None, Trace.I i when name = k -> Some i
      | _ -> acc)
    None args

(* Accumulator per grouped evidence source: counts plus the global
   trace-event index range and the victim trace ids it implicates. *)
type acc = {
  mutable n : int;
  mutable extra : int;
  mutable hits : IntSet.t;
  mutable first_ev : int;
  mutable last_ev : int;
}

let acc_make () =
  { n = 0; extra = 0; hits = IntSet.empty; first_ev = max_int; last_ev = -1 }

let acc_touch a idx =
  a.n <- a.n + 1;
  if idx < a.first_ev then a.first_ev <- idx;
  if idx > a.last_ev then a.last_ev <- idx

let group tbl key = match Hashtbl.find_opt tbl key with
  | Some a -> a
  | None ->
      let a = acc_make () in
      Hashtbl.replace tbl key a;
      a

let finding_of ~victim ~from_ns ~until_ns ~truncated ~severity ~component ~kind
    ~subject ~explanation ~cause (a : acc) =
  {
    f_severity = severity;
    f_component = component;
    f_kind = kind;
    f_subject = subject;
    f_explanation = explanation;
    f_victim = victim;
    f_cause = cause;
    f_trace_ids = IntSet.elements a.hits;
    f_first_event = a.first_ev;
    f_last_event = a.last_ev;
    f_from_ns = from_ns;
    f_until_ns = until_ns;
    f_truncated = truncated;
  }

let sec ns = float_of_int ns /. 1e9

(* Walk the retained trace window backwards from the victim's noted trace
   ids to the causal events that plausibly produced the burn. Link drops
   that hit the victim's own packet timelines are ranked Error; ambient
   evidence (drop storms elsewhere, PRE invalidation storms, controller
   resync epochs, RPC retry storms) surfaces as Warning context. *)
let min_victim_hits = 3
let min_ambient = 20
let min_pre_flushes = 10
let min_rpc_spans = 5

let attribute ~victim ~from_ns ~until_ns () =
  let vkey = Qoe.key_of victim in
  let victim_ids =
    IntSet.of_list (Qoe.traces_between victim ~from_ns ~until_ns)
  in
  (* The victim's own access links: every drop there is, by construction,
     a packet addressed to the victim — the gap in its timeline. Drops
     elsewhere only implicate the victim when the dropped replica's trace
     id matches a packet the victim did receive (replicas of one ingress
     packet share its id), i.e. shared-fate evidence. *)
  let victim_links =
    match Qoe.host victim with
    | "" -> []
    | host -> [ "up:" ^ host; "down:" ^ host ]
  in
  let truncated =
    Trace.dropped () > 0
    &&
    match Trace.events () with
    | [] -> true
    | oldest :: _ -> oldest.Trace.ts > from_ns
  in
  let link_loss : (string, acc) Hashtbl.t = Hashtbl.create 8 in
  let link_queue : (string, acc) Hashtbl.t = Hashtbl.create 8 in
  let pre : (string, acc) Hashtbl.t = Hashtbl.create 4 in
  let resync : (int, acc) Hashtbl.t = Hashtbl.create 4 in
  let rpc : (string, acc) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (idx, ev) ->
      let ts = ev.Trace.ts in
      let ends = if ev.Trace.dur >= 0 then ts + ev.Trace.dur else ts in
      if ends >= from_ns && ts <= until_ns then
        match (ev.Trace.cat, ev.Trace.name) with
        | "link", "link_drop" ->
            let linkname =
              Option.value (arg_s ev.Trace.args "link") ~default:"?"
            in
            let tbl =
              match arg_s ev.Trace.args "reason" with
              | Some "queue" -> link_queue
              | _ -> link_loss
            in
            let a = group tbl linkname in
            acc_touch a idx;
            if List.mem linkname victim_links then a.extra <- a.extra + 1;
            if
              ev.Trace.trace >= 0
              && (List.mem linkname victim_links
                 || IntSet.mem ev.Trace.trace victim_ids)
            then a.hits <- IntSet.add ev.Trace.trace a.hits
        | "pre", "pre_invalidate" ->
            let label = Option.value (arg_s ev.Trace.args "pre") ~default:"?" in
            acc_touch (group pre label) idx
        | "ctrl", "resync" ->
            let agent = Option.value (arg_i ev.Trace.args "agent") ~default:(-1) in
            let a = group resync agent in
            acc_touch a idx;
            a.extra <- a.extra + Option.value (arg_i ev.Trace.args "ops") ~default:0
        | "rpc", _ -> (
            match (arg_s ev.Trace.args "client", arg_i ev.Trace.args "attempts") with
            | Some client, Some attempts when attempts >= 2 ->
                let a = group rpc client in
                acc_touch a idx;
                a.extra <- a.extra + (attempts - 1)
            | _ -> ())
        | _ -> ())
    (Trace.events_indexed ());
  let mk = finding_of ~victim:vkey ~from_ns ~until_ns ~truncated in
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  (* [a.extra] counts drops on the victim's own access links (each one a
     victim-addressed packet); [a.hits] holds the implicated trace ids
     (victim-link drops plus shared-fate matches elsewhere). *)
  let link_findings ~kind ~what ~cause tbl =
    Hashtbl.iter
      (fun link (a : acc) ->
        let own = a.extra in
        let shared = IntSet.cardinal a.hits in
        let victim_hits = if own > 0 then own else shared in
        if own >= min_victim_hits || shared >= min_victim_hits || a.n >= min_ambient
        then
          emit
            (mk
               ~severity:(if own >= min_victim_hits then Error else Warning)
               ~component:"link" ~kind ~subject:link
               ~explanation:
                 (Printf.sprintf
                    "%d %s drops on link %s in [%.3fs, %.3fs]; %d were %s"
                    a.n what link (sec from_ns) (sec until_ns) victim_hits
                    (if own > 0 then "packets addressed to the victim"
                     else "replicas of packets the victim received (shared fate)"))
               ~cause:(cause ~link ~drops:a.n ~victim_hits)
               a))
      tbl
  in
  link_findings ~kind:"link_loss" ~what:"loss"
    ~cause:(fun ~link ~drops ~victim_hits -> Link_loss { link; drops; victim_hits })
    link_loss;
  link_findings ~kind:"link_queue" ~what:"queue-overflow"
    ~cause:(fun ~link ~drops ~victim_hits ->
      Link_queue { link; drops; victim_hits })
    link_queue;
  Hashtbl.iter
    (fun label (a : acc) ->
      if a.n >= min_pre_flushes then
        emit
          (mk ~severity:Warning ~component:"pre" ~kind:"pre_invalidation"
             ~subject:label
             ~explanation:
               (Printf.sprintf
                  "PRE %s flushed its fan-out cache %d times in the window \
                   (invalidation storm)"
                  label a.n)
             ~cause:(Pre_invalidation { pre = label; flushes = a.n })
             a))
    pre;
  Hashtbl.iter
    (fun agent (a : acc) ->
      emit
        (mk ~severity:Warning ~component:"ctrl" ~kind:"resync"
           ~subject:(Printf.sprintf "agent%d" agent)
           ~explanation:
             (Printf.sprintf
                "controller resynced agent %d (%d epochs, %d replayed ops) \
                 inside the window — media plumbing was being rebuilt"
                agent a.n a.extra)
           ~cause:(Resync { agent; ops = a.extra })
           a))
    resync;
  Hashtbl.iter
    (fun client (a : acc) ->
      if a.n >= min_rpc_spans then
        emit
          (mk ~severity:Warning ~component:"rpc" ~kind:"rpc_retries"
             ~subject:client
             ~explanation:
               (Printf.sprintf
                  "RPC client %s needed retries on %d calls (%d extra \
                   attempts) in the window — control channel degraded"
                  client a.n a.extra)
             ~cause:(Rpc_retries { client; spans = a.n; attempts = a.extra })
             a))
    rpc;
  (* Errors first, then by victim impact, then evidence volume; key as a
     last resort for a total deterministic order. *)
  let weight f =
    match f.f_cause with
    | Link_loss { victim_hits; drops; _ } | Link_queue { victim_hits; drops; _ }
      ->
        (victim_hits, drops)
    | Pre_invalidation { flushes; _ } -> (0, flushes)
    | Resync { ops; _ } -> (0, ops)
    | Rpc_retries { spans; _ } -> (0, spans)
  in
  List.sort
    (fun a b ->
      match compare a.f_severity b.f_severity with
      | 0 ->
          let wa = weight a and wb = weight b in
          if wa <> wb then compare wb wa
          else compare (a.f_component, a.f_subject) (b.f_component, b.f_subject)
      | c -> c)
    !findings

let of_alert (alert : Slo.alert) =
  match Qoe.find alert.Slo.a_key with
  | None -> []
  | Some victim ->
      attribute ~victim ~from_ns:alert.Slo.a_from_ns ~until_ns:alert.Slo.a_until_ns ()

let render f =
  Printf.sprintf "[%s] %s %s: %s (events %d..%d%s, window [%.3fs, %.3fs]%s)"
    (String.uppercase_ascii (severity_str f.f_severity))
    f.f_component f.f_subject f.f_explanation f.f_first_event f.f_last_event
    (match f.f_trace_ids with
    | [] -> ""
    | ids -> Printf.sprintf ", %d victim traces" (List.length ids))
    (sec f.f_from_ns) (sec f.f_until_ns)
    (if f.f_truncated then ", evidence TRUNCATED by ring wrap" else "")

(* --- JSON ------------------------------------------------------------------ *)

let cause_fields = function
  | Link_loss { drops; victim_hits; _ } | Link_queue { drops; victim_hits; _ } ->
      [ ("drops", drops); ("victim_hits", victim_hits) ]
  | Pre_invalidation { flushes; _ } -> [ ("flushes", flushes) ]
  | Resync { agent; ops } -> [ ("agent", agent); ("ops", ops) ]
  | Rpc_retries { spans; attempts; _ } ->
      [ ("spans", spans); ("attempts", attempts) ]

let finding_to_json f =
  let esc = Scallop_util.Json.escape in
  let k = f.f_victim in
  Printf.sprintf
    "{\"severity\": \"%s\", \"component\": \"%s\", \"kind\": \"%s\", \
     \"subject\": \"%s\", \"explanation\": \"%s\", \"victim\": {\"meeting\": \
     %d, \"receiver\": %d, \"sender\": %d, \"media\": \"%s\", \"kind\": \
     \"%s\"}, \"data\": {%s}, \"trace_ids\": [%s], \"events\": [%d, %d], \
     \"window_ns\": [%d, %d], \"truncated\": %b}"
    (severity_str f.f_severity)
    (esc f.f_component) (esc f.f_kind) (esc f.f_subject)
    (esc f.f_explanation) k.Qoe.k_meeting k.Qoe.k_receiver
    k.Qoe.k_sender
    (Qoe.media_str k.Qoe.k_media)
    (Qoe.kind_str k.Qoe.k_kind)
    (String.concat ", "
       (List.map
          (fun (name, v) -> Printf.sprintf "\"%s\": %d" name v)
          (cause_fields f.f_cause)))
    (String.concat ", " (List.map string_of_int f.f_trace_ids))
    f.f_first_event f.f_last_event f.f_from_ns f.f_until_ns f.f_truncated

(* Minimal JSON reader covering exactly the subset the encoder above
   emits (objects, arrays, escaped strings, integers, bools) — enough to
   prove the report round-trips without a parser dependency. *)
module Json = struct
  type v =
    | Obj of (string * v) list
    | Arr of v list
    | Str of string
    | Int of int
    | Bool of bool

  exception Bad of string

  type st = { s : string; mutable i : int }

  let peek st = if st.i >= String.length st.s then '\000' else st.s.[st.i]

  let skip_ws st =
    while st.i < String.length st.s
          && (match st.s.[st.i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      st.i <- st.i + 1
    done

  let expect st c =
    skip_ws st;
    if peek st <> c then raise (Bad (Printf.sprintf "expected %c at %d" c st.i));
    st.i <- st.i + 1

  let parse_string st =
    expect st '"';
    let b = Buffer.create 16 in
    let rec go () =
      if st.i >= String.length st.s then raise (Bad "unterminated string");
      match st.s.[st.i] with
      | '"' -> st.i <- st.i + 1
      | '\\' ->
          st.i <- st.i + 1;
          (match peek st with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | 'u' ->
              let code = int_of_string ("0x" ^ String.sub st.s (st.i + 1) 4) in
              st.i <- st.i + 4;
              Buffer.add_char b (Char.chr (code land 0xff))
          | c -> Buffer.add_char b c);
          st.i <- st.i + 1;
          go ()
      | c ->
          Buffer.add_char b c;
          st.i <- st.i + 1;
          go ()
    in
    go ();
    Buffer.contents b

  let rec parse st =
    skip_ws st;
    match peek st with
    | '{' ->
        st.i <- st.i + 1;
        skip_ws st;
        if peek st = '}' then (st.i <- st.i + 1; Obj [])
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws st;
            let k = parse_string st in
            expect st ':';
            let v = parse st in
            fields := (k, v) :: !fields;
            skip_ws st;
            match peek st with
            | ',' -> st.i <- st.i + 1; members ()
            | '}' -> st.i <- st.i + 1
            | _ -> raise (Bad "object")
          in
          members ();
          Obj (List.rev !fields)
        end
    | '[' ->
        st.i <- st.i + 1;
        skip_ws st;
        if peek st = ']' then (st.i <- st.i + 1; Arr [])
        else begin
          let items = ref [] in
          let rec elems () =
            items := parse st :: !items;
            skip_ws st;
            match peek st with
            | ',' -> st.i <- st.i + 1; elems ()
            | ']' -> st.i <- st.i + 1
            | _ -> raise (Bad "array")
          in
          elems ();
          Arr (List.rev !items)
        end
    | '"' -> Str (parse_string st)
    | 't' -> st.i <- st.i + 4; Bool true
    | 'f' -> st.i <- st.i + 5; Bool false
    | _ ->
        let start = st.i in
        if peek st = '-' then st.i <- st.i + 1;
        while (match peek st with '0' .. '9' -> true | _ -> false) do
          st.i <- st.i + 1
        done;
        if st.i = start then raise (Bad (Printf.sprintf "value at %d" st.i));
        Int (int_of_string (String.sub st.s start (st.i - start)))

  let of_string s =
    let st = { s; i = 0 } in
    let v = parse st in
    skip_ws st;
    v

  let mem k = function
    | Obj fields -> List.assoc_opt k fields
    | _ -> None

  let str = function Str s -> Some s | _ -> None
  let int = function Int i -> Some i | _ -> None
  let bool = function Bool b -> Some b | _ -> None
end

let finding_of_json s =
  let ( let* ) = Option.bind in
  try
    let j = Json.of_string s in
    let* severity = Option.bind (Json.mem "severity" j) Json.str in
    let* f_severity = severity_of_str severity in
    let* f_component = Option.bind (Json.mem "component" j) Json.str in
    let* f_kind = Option.bind (Json.mem "kind" j) Json.str in
    let* f_subject = Option.bind (Json.mem "subject" j) Json.str in
    let* f_explanation = Option.bind (Json.mem "explanation" j) Json.str in
    let* victim = Json.mem "victim" j in
    let* k_meeting = Option.bind (Json.mem "meeting" victim) Json.int in
    let* k_receiver = Option.bind (Json.mem "receiver" victim) Json.int in
    let* k_sender = Option.bind (Json.mem "sender" victim) Json.int in
    let* k_media =
      Option.bind
        (Option.bind (Json.mem "media" victim) Json.str)
        Qoe.media_of_str
    in
    let* k_kind =
      Option.bind (Option.bind (Json.mem "kind" victim) Json.str) Qoe.kind_of_str
    in
    let* data = Json.mem "data" j in
    let di k = Option.value (Option.bind (Json.mem k data) Json.int) ~default:0 in
    let* f_cause =
      match f_kind with
      | "link_loss" ->
          Some
            (Link_loss
               {
                 link = f_subject;
                 drops = di "drops";
                 victim_hits = di "victim_hits";
               })
      | "link_queue" ->
          Some
            (Link_queue
               {
                 link = f_subject;
                 drops = di "drops";
                 victim_hits = di "victim_hits";
               })
      | "pre_invalidation" ->
          Some (Pre_invalidation { pre = f_subject; flushes = di "flushes" })
      | "resync" -> Some (Resync { agent = di "agent"; ops = di "ops" })
      | "rpc_retries" ->
          Some
            (Rpc_retries
               { client = f_subject; spans = di "spans"; attempts = di "attempts" })
      | _ -> None
    in
    let* trace_ids = Json.mem "trace_ids" j in
    let* f_trace_ids =
      match trace_ids with
      | Json.Arr items ->
          List.fold_left
            (fun acc it ->
              match (acc, Json.int it) with
              | Some l, Some i -> Some (i :: l)
              | _ -> None)
            (Some []) items
          |> Option.map List.rev
      | _ -> None
    in
    let pair k =
      match Json.mem k j with
      | Some (Json.Arr [ a; b ]) -> (
          match (Json.int a, Json.int b) with
          | Some a, Some b -> Some (a, b)
          | _ -> None)
      | _ -> None
    in
    let* f_first_event, f_last_event = pair "events" in
    let* f_from_ns, f_until_ns = pair "window_ns" in
    let* f_truncated = Option.bind (Json.mem "truncated" j) Json.bool in
    Some
      {
        f_severity;
        f_component;
        f_kind;
        f_subject;
        f_explanation;
        f_victim =
          { Qoe.k_meeting; k_receiver; k_sender; k_media; k_kind };
        f_cause;
        f_trace_ids;
        f_first_event;
        f_last_event;
        f_from_ns;
        f_until_ns;
        f_truncated;
      }
  with Json.Bad _ | Invalid_argument _ | Failure _ -> None
