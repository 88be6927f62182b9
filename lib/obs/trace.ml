module Json = Scallop_util.Json

type level = Off | Rpc | Packet | Verbose

let rank = function Off -> 0 | Rpc -> 1 | Packet -> 2 | Verbose -> 3

(* The hot-path gate: one load + compare. *)
let current = ref 0

let set_level l = current := rank l
let level () = match !current with 0 -> Off | 1 -> Rpc | 2 -> Packet | _ -> Verbose
let enabled l = !current >= rank l

type value = I of int | S of string

type event = {
  ts : int;
  dur : int;
  cat : string;
  name : string;
  trace : int;
  args : (string * value) list;
}

let default_capacity = 1 lsl 18

type ring = {
  mutable buf : event option array;
  mutable next : int;  (** next write slot *)
  mutable written : int;  (** total sink writes since reset *)
}

let ring = { buf = Array.make default_capacity None; next = 0; written = 0 }

let set_capacity n =
  if n <= 0 then invalid_arg "Trace.set_capacity";
  ring.buf <- Array.make n None;
  ring.next <- 0;
  ring.written <- 0

let packet_counter = ref 0
let sample_every = ref 1

let set_sample_every n =
  if n <= 0 then invalid_arg "Trace.set_sample_every";
  sample_every := n

let next_trace_id = ref 0

let next_packet_id () =
  let k = !packet_counter in
  packet_counter := k + 1;
  if k mod !sample_every = 0 then (
    let id = !next_trace_id in
    next_trace_id := id + 1;
    id)
  else -1

let reset () =
  Array.fill ring.buf 0 (Array.length ring.buf) None;
  ring.next <- 0;
  ring.written <- 0;
  packet_counter := 0;
  next_trace_id := 0

(* Online listener: an optional tap on the single write point, so a
   checker can evaluate temporal rules as events stream in instead of
   post-processing the (lossy, ring-bounded) buffer. *)
let listener : (event -> unit) option ref = ref None
let set_listener f = listener := f

let emit ev =
  ring.buf.(ring.next) <- Some ev;
  ring.next <- (ring.next + 1) mod Array.length ring.buf;
  ring.written <- ring.written + 1;
  match !listener with None -> () | Some f -> f ev

let instant ~ts ?(trace = -1) ?(args = []) ~cat name =
  emit { ts; dur = -1; cat; name; trace; args }

let complete ~ts ~dur ?(trace = -1) ?(args = []) ~cat name =
  emit { ts; dur; cat; name; trace; args }

let writes () = ring.written
let dropped () = Stdlib.max 0 (ring.written - Array.length ring.buf)
let first_retained () = dropped ()

(* Export the evidence-truncation counter so attribution (and dashboards)
   can tell a quiet ring from one that silently overwrote its history.
   Re-invoked by dump sites because [Metrics.reset] detaches callbacks. *)
let register_metrics () =
  Metrics.register_callback "scallop_trace_dropped_total"
    ~help:"Trace events overwritten after the ring buffer wrapped"
    (fun () -> float_of_int (dropped ()));
  Metrics.register_callback "scallop_trace_writes_total"
    ~help:"Trace events written to the ring sink since reset"
    (fun () -> float_of_int (writes ()))

let () = register_metrics ()

(* Virtual-time source for emitters that have no engine handle in scope
   (e.g. [Tofino.Pre] cache invalidations). Installed by [Netsim.Engine]
   at creation; deterministic because the engine clock is. *)
let clock : (unit -> int) ref = ref (fun () -> 0)
let set_clock f = clock := f
let now () = !clock ()

let events () =
  let cap = Array.length ring.buf in
  let n = Stdlib.min ring.written cap in
  let start = if ring.written <= cap then 0 else ring.next in
  List.init n (fun i ->
      match ring.buf.((start + i) mod cap) with
      | Some ev -> ev
      | None -> assert false)

let events_indexed () =
  let base = first_retained () in
  List.mapi (fun i ev -> (base + i, ev)) (events ())

let timeline ~trace = List.filter (fun ev -> ev.trace = trace) (events ())

(* --- Chrome trace-event export --------------------------------------------- *)

(* Stable thread-row assignment so the Perfetto view groups events by
   component instead of interleaving them on one row. *)
let tid_of_cat = function
  | "dp" -> 1
  | "pre" -> 2
  | "link" -> 3
  | "client" -> 4
  | "rpc" -> 5
  | _ -> 9

(* Chrome wants microsecond timestamps; virtual time is integer ns, so
   print [us.nnn] with integer arithmetic — no float formatting on the
   determinism-critical path. *)
let ts_str ns = Printf.sprintf "%d.%03d" (ns / 1000) (ns mod 1000)

let add_args b trace args =
  Buffer.add_string b "\"args\":{";
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_string b "," in
  if trace >= 0 then begin
    sep ();
    Buffer.add_string b (Printf.sprintf "\"trace\":%d" trace)
  end;
  List.iter
    (fun (k, v) ->
      sep ();
      Buffer.add_string b (Printf.sprintf "\"%s\":" (Json.escape k));
      match v with
      | I i -> Buffer.add_string b (string_of_int i)
      | S s -> Buffer.add_string b (Printf.sprintf "\"%s\"" (Json.escape s)))
    args;
  Buffer.add_string b "}"

let to_chrome_json () =
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun ev ->
      if !first then first := false else Buffer.add_string b ",";
      Buffer.add_string b "\n";
      Buffer.add_string b
        (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"%s\",\"pid\":1,\"tid\":%d,\"ts\":%s,"
           (Json.escape ev.name) (Json.escape ev.cat) (tid_of_cat ev.cat) (ts_str ev.ts));
      if ev.dur >= 0 then
        Buffer.add_string b (Printf.sprintf "\"ph\":\"X\",\"dur\":%s," (ts_str ev.dur))
      else Buffer.add_string b "\"ph\":\"i\",\"s\":\"t\",";
      add_args b ev.trace ev.args;
      Buffer.add_string b "}")
    (events ());
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

let write_chrome_json path =
  let oc = open_out path in
  output_string oc (to_chrome_json ());
  close_out oc
