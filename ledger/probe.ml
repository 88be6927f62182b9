(* Layer attribution from outside the library.

   Probe points are reached at three kinds of place: every engine step
   the harness drives ([Engine.step]), every event the library writes to
   the [Scallop_obs.Trace] listener, and every client tx/rx hook call or
   control-channel delivery. The wall time and minor-heap allocation
   between two consecutive points are charged to the segment
   [prev -> next], and [layer_of] maps every segment to exactly one
   layer, so the layer self times add up to the traced total by
   construction.

   Each point reads the clock on entry and again on exit: the segment
   ends at the first read and the next one starts at the second, so the
   probe's own bookkeeping is never charged to a layer. What remains
   charged (building the trace event, the listener dispatch, half of
   each clock read) is measured by [calibrate] and subtracted per point. *)

module Obs_trace = Scallop_obs.Trace

(* Bechamel's monotonic clock stub, declared here unboxed and noalloc so
   a probe allocates nothing. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

type layer =
  | Dp_ingress
  | Pre
  | Dp_replica
  | Link
  | Eventq
  | Untapped
  | Client_rx
  | Client_tx_media
  | Client_tx_rtcp
  | Agent
  | Rpc_server
  | Rpc_client
  | Controller

let layers =
  [| Dp_ingress; Pre; Dp_replica; Link; Eventq; Untapped; Client_rx; Client_tx_media;
     Client_tx_rtcp; Agent; Rpc_server; Rpc_client; Controller |]

let n_layers = Array.length layers

let layer_index = function
  | Dp_ingress -> 0
  | Pre -> 1
  | Dp_replica -> 2
  | Link -> 3
  | Eventq -> 4
  | Untapped -> 5
  | Client_rx -> 6
  | Client_tx_media -> 7
  | Client_tx_rtcp -> 8
  | Agent -> 9
  | Rpc_server -> 10
  | Rpc_client -> 11
  | Controller -> 12

let layer_name = function
  | Dp_ingress -> "dataplane.ingress"
  | Pre -> "tofino.pre"
  | Dp_replica -> "dataplane.replica"
  | Link -> "netsim.link"
  | Eventq -> "netsim.eventq"
  | Untapped -> "netsim.untapped"
  | Client_rx -> "webrtc.client.rx"
  | Client_tx_media -> "webrtc.client.tx_media"
  | Client_tx_rtcp -> "webrtc.client.tx_rtcp"
  | Agent -> "switch_agent.exec"
  | Rpc_server -> "rpc_transport.server"
  | Rpc_client -> "rpc_transport.client"
  | Controller -> "controller.self"

type point =
  | Op_start
  | Op_end
  | Step  (** before each [Engine.step] the harness makes *)
  | Ctrl_start  (** a controller call inside a data-path op *)
  | Ctrl_end
  | Ev_ingress
  | Ev_pre_fanout
  | Ev_egress
  | Ev_link_enqueue
  | Ev_link_deliver
  | Ev_link_drop
  | Ev_client_rx
  | Ev_rpc_span  (** the client's complete span, written when a call settles *)
  | Ev_rpc_exec
  | Ev_batch_begin
  | Ev_batch_op
  | Ev_batch_end
  | Ev_agent  (** other agent events and PRE cache invalidations *)
  | Ev_ctrl
  | Ev_other
  | Rx_hook
  | Tx_media
  | Tx_rtcp
  | Ctl_fwd  (** control datagram delivered to the agent *)
  | Ctl_rev  (** reply delivered to the controller *)

let n_points = 25

let point_index = function
  | Op_start -> 0
  | Op_end -> 1
  | Step -> 2
  | Ctrl_start -> 3
  | Ctrl_end -> 4
  | Ev_ingress -> 5
  | Ev_pre_fanout -> 6
  | Ev_egress -> 7
  | Ev_link_enqueue -> 8
  | Ev_link_deliver -> 9
  | Ev_link_drop -> 10
  | Ev_client_rx -> 11
  | Ev_rpc_span -> 12
  | Ev_rpc_exec -> 13
  | Ev_batch_begin -> 14
  | Ev_batch_op -> 15
  | Ev_batch_end -> 16
  | Ev_agent -> 17
  | Ev_ctrl -> 18
  | Ev_other -> 19
  | Rx_hook -> 20
  | Tx_media -> 21
  | Tx_rtcp -> 22
  | Ctl_fwd -> 23
  | Ctl_rev -> 24

(* Events cost more than marks: the library builds an event record and
   its argument list before the listener runs. *)
let is_event = function
  | Ev_ingress | Ev_pre_fanout | Ev_egress | Ev_link_enqueue | Ev_link_deliver
  | Ev_link_drop | Ev_client_rx | Ev_rpc_span | Ev_rpc_exec | Ev_batch_begin
  | Ev_batch_op | Ev_batch_end | Ev_agent | Ev_ctrl | Ev_other ->
      true
  | Op_start | Op_end | Step | Ctrl_start | Ctrl_end | Rx_hook | Tx_media | Tx_rtcp
  | Ctl_fwd | Ctl_rev ->
      false

let classify (ev : Obs_trace.event) =
  match ev.cat with
  | "dp" -> (
      match ev.name with "ingress" -> Ev_ingress | "egress" -> Ev_egress | _ -> Ev_other)
  | "pre" -> ( match ev.name with "pre_fanout" -> Ev_pre_fanout | _ -> Ev_agent)
  | "link" -> (
      match ev.name with
      | "link_enqueue" -> Ev_link_enqueue
      | "link_deliver" -> Ev_link_deliver
      | _ -> Ev_link_drop)
  | "client" -> Ev_client_rx
  | "rpc" -> if ev.dur >= 0 then Ev_rpc_span else Ev_rpc_exec
  | "agent" -> (
      match ev.name with
      | "batch_begin" -> Ev_batch_begin
      | "batch_op" -> Ev_batch_op
      | "batch_end" -> Ev_batch_end
      | _ -> Ev_agent)
  | "ctrl" -> Ev_ctrl
  | _ -> Ev_other

(* The segment -> layer table. Mostly the point a segment starts at
   names the code that ran after it; after a step boundary (or a
   controller call returning into the data path) the point that ends
   the segment says which handler the step dispatched to. A handler that
   reaches no tap at all — timers, link queue releases, routing of
   untraced or undeliverable datagrams, the agent's CPU-port work — is
   [Untapped]. Inside a controller op every unclaimed segment, including
   the clients' connection set-up, is the controller's own. The event
   queue itself is charged per step, in [point]. *)
let layer_of ~start_layer ~in_ctrl prev next =
  match prev with
  | Op_start -> start_layer
  | Ev_ingress -> Pre
  | Ev_pre_fanout | Ev_egress -> Dp_replica
  | Ev_link_enqueue | Ev_link_deliver | Ev_link_drop -> Link
  | Tx_media | Tx_rtcp -> if in_ctrl then Controller else Link
  | Rx_hook | Ev_client_rx -> Client_rx
  | Ctl_fwd | Ev_rpc_exec | Ev_batch_end -> Rpc_server
  | Ev_batch_begin | Ev_batch_op | Ev_agent -> Agent
  | Ctl_rev -> Rpc_client
  | Ev_rpc_span | Ctrl_start | Ev_ctrl -> Controller
  | Step | Ctrl_end | Op_end | Ev_other -> (
      match next with
      | Ev_ingress -> Dp_ingress
      | Ev_pre_fanout -> Pre
      | Ev_egress -> Dp_replica
      | Ev_link_enqueue | Ev_link_drop | Rx_hook | Ctl_fwd | Ctl_rev -> Link
      | Tx_media when not in_ctrl -> Client_tx_media
      | Tx_rtcp when not in_ctrl -> Client_tx_rtcp
      | Ev_rpc_span -> Rpc_client
      | _ -> if in_ctrl then Controller else Untapped)

(* --- accumulators --------------------------------------------------------- *)

type acc = {
  ns : int array;  (** per layer *)
  words : float array;  (** per layer, minor-heap words *)
  ev_ends : int array;  (** per layer: segments that ended at an event *)
  mark_ends : int array;  (** per layer: segments that ended at a mark *)
  points : int array;  (** per point kind *)
}

let make_acc () =
  {
    ns = Array.make n_layers 0;
    words = Array.make n_layers 0.0;
    ev_ends = Array.make n_layers 0;
    mark_ends = Array.make n_layers 0;
    points = Array.make n_points 0;
  }

let clear a =
  Array.fill a.ns 0 n_layers 0;
  Array.fill a.words 0 n_layers 0.0;
  Array.fill a.ev_ends 0 n_layers 0;
  Array.fill a.mark_ends 0 n_layers 0;
  Array.fill a.points 0 n_points 0

let add_into dst src =
  for i = 0 to n_layers - 1 do
    dst.ns.(i) <- dst.ns.(i) + src.ns.(i);
    dst.words.(i) <- dst.words.(i) +. src.words.(i);
    dst.ev_ends.(i) <- dst.ev_ends.(i) + src.ev_ends.(i);
    dst.mark_ends.(i) <- dst.mark_ends.(i) + src.mark_ends.(i)
  done;
  for i = 0 to n_points - 1 do
    dst.points.(i) <- dst.points.(i) + src.points.(i)
  done

let op = make_acc ()
let total = make_acc ()
let kept_ops = ref 0
let active = ref false
let in_ctrl = ref false
let start_layer = ref Eventq
let prev = ref Op_start
let prev_ns = ref 0
let prev_words = ref 0.0
let op_index = ref 0

(* Calibrated cost of popping and dispatching one event: the head of
   every segment that starts at a step goes to [Eventq], up to this. *)
let step_ns = ref 0
let eventq = layer_index Eventq

(* --- Chrome spans --------------------------------------------------------- *)

(* Consecutive segments of one layer merge into one span. Spans are kept
   in flat arrays up to [span_cap] and written out at exit. *)
let span_cap = 100_000
let span_layer = Array.make span_cap 0
let span_start = Array.make span_cap 0
let span_end = Array.make span_cap 0
let span_op = Array.make span_cap 0
let n_spans = ref 0
let op_first_span = ref 0
let open_span = ref false
let epoch_ns = ref 0

let span_segment l ~from ~until =
  let n = !n_spans in
  if !open_span && span_layer.(n - 1) = l then span_end.(n - 1) <- until
  else if n < span_cap then begin
    span_layer.(n) <- l;
    span_start.(n) <- from - !epoch_ns;
    span_end.(n) <- until;
    span_op.(n) <- !op_index;
    n_spans := n + 1;
    open_span := true
  end
  else open_span := false

let point p =
  if !active then begin
    let t = now_ns () in
    let w = Gc.minor_words () in
    let i =
      layer_index (layer_of ~start_layer:!start_layer ~in_ctrl:!in_ctrl !prev p)
    in
    let dt = t - !prev_ns in
    let q = if !prev = Step then min dt !step_ns else 0 in
    op.ns.(eventq) <- op.ns.(eventq) + q;
    op.ns.(i) <- op.ns.(i) + (dt - q);
    op.words.(i) <- op.words.(i) +. (w -. !prev_words);
    if is_event p then op.ev_ends.(i) <- op.ev_ends.(i) + 1
    else op.mark_ends.(i) <- op.mark_ends.(i) + 1;
    let k = point_index p in
    op.points.(k) <- op.points.(k) + 1;
    span_segment i ~from:!prev_ns ~until:(t - !epoch_ns);
    prev := p;
    prev_words := Gc.minor_words ();
    prev_ns := now_ns ()
  end

let listener ev = if !active then point (classify ev)
let rx_hook ~time_ns:_ _ = point Rx_hook

let tx_hook ~time_ns:_ (d : Netsim.Dgram.t) =
  if !active then
    point
      (match Rtp.Demux.classify d.Netsim.Dgram.payload with
      | Rtp.Demux.Rtp_media -> Tx_media
      | Rtp.Demux.Rtcp_feedback | Rtp.Demux.Stun_packet | Rtp.Demux.Unknown -> Tx_rtcp)

let ctrl_begin () =
  point Ctrl_start;
  in_ctrl := true

let ctrl_end () =
  point Ctrl_end;
  in_ctrl := false

(* An op window. [ctrl] marks the whole op as a controller operation. *)
let op_begin ~ctrl =
  clear op;
  in_ctrl := ctrl;
  prev := Op_start;
  op_first_span := !n_spans;
  open_span := false;
  active := true;
  prev_words := Gc.minor_words ();
  prev_ns := now_ns ()

(* Close the window; a kept op joins the totals, a dropped one (an
   op whose packet the 1-in-N sampler skipped) leaves no trace. *)
let op_end ~keep =
  point Op_end;
  active := false;
  in_ctrl := false;
  if keep then begin
    add_into total op;
    incr kept_ops
  end
  else n_spans := !op_first_span;
  open_span := false;
  incr op_index

let op_points p = op.points.(point_index p)

let reset_totals () =
  clear total;
  kept_ops := 0;
  n_spans := 0;
  op_index := 0;
  epoch_ns := now_ns ()

(* --- calibration ---------------------------------------------------------- *)

type calibration = {
  event_ns : float;  (** full cost of one listener-tapped [Trace.instant] *)
  event_resid_ns : float;
      (** what the probe alone leaves charged per event: a probed event's
          charged time less the same [Trace.instant] without a listener *)
  event_resid_words : float;
  mark_resid_ns : float;
  mark_resid_words : float;
}

let charged () =
  let ns = ref 0 and w = ref 0.0 in
  for i = 0 to n_layers - 1 do
    ns := !ns + op.ns.(i);
    w := !w +. op.words.(i)
  done;
  (float_of_int !ns, !w)

let median3 a b c = Float.max (Float.min a b) (Float.min (Float.max a b) c)

(* Times [k] probes of each kind, three times, and keeps the medians.
   Between two probes runs a little foreign work (a hash-table lookup, a
   short list map, a 256-byte allocation), as the library's own code runs
   between them in an op, and its time alone is subtracted: probes timed
   back to back in a hot loop cost less than they do in a run, which
   left campus_live's layer sum about 5% above its untraced time. Event
   probes carry the argument list shape of the data plane's [egress]
   event, the most frequent one. The step cost is a probed
   [Engine.step] loop over no-op events, 1,000 of them pending, less the
   probe's own residual. *)
let calibrate ~k =
  let kf = float_of_int k in
  let saved = (!start_layer, !op_index, !n_spans) in
  step_ns := 0;
  let tbl = Hashtbl.create 4096 in
  for i = 0 to 4095 do
    Hashtbl.replace tbl (i * 7919) (string_of_int i)
  done;
  let foreign i =
    let x = Hashtbl.find_opt tbl ((i * 104729) land 4095 * 7919) in
    let l = List.map (fun j -> j * i) [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
    ignore (Sys.opaque_identity (x, l, Bytes.make 256 'x'))
  in
  let events () =
    for i = 1 to k do
      foreign i;
      Obs_trace.instant ~ts:i ~trace:i ~cat:"dp" "egress"
        ~args:[ ("receiver", Obs_trace.I i); ("ssrc", Obs_trace.I 7) ]
    done
  in
  let once () =
    let t0 = now_ns () and w0 = Gc.minor_words () in
    for i = 1 to k do
      foreign i
    done;
    let fg_ns = float_of_int (now_ns () - t0) and fg_w = Gc.minor_words () -. w0 in
    Obs_trace.set_listener None;
    let t0 = now_ns () and w0 = Gc.minor_words () in
    events ();
    let lib_ns = float_of_int (now_ns () - t0) and lib_w = Gc.minor_words () -. w0 in
    Obs_trace.set_listener (Some listener);
    op_begin ~ctrl:false;
    let t0 = now_ns () in
    events ();
    let t1 = now_ns () in
    let ev_ns, ev_w = charged () in
    let ev_ns = ev_ns -. lib_ns and ev_w = ev_w -. lib_w in
    active := false;
    op_begin ~ctrl:false;
    for i = 1 to k do
      foreign i;
      point Step
    done;
    let mk_ns, mk_w = charged () in
    let mk_ns = mk_ns -. fg_ns and mk_w = mk_w -. fg_w in
    active := false;
    let e = Netsim.Engine.create () in
    let rec tick () = Netsim.Engine.schedule e ~after:1000 tick in
    for i = 1 to 1000 do
      Netsim.Engine.at e ~time:i tick
    done;
    op_begin ~ctrl:false;
    for i = 1 to k do
      foreign i;
      point Step;
      ignore (Netsim.Engine.step e)
    done;
    let st_ns, _ = charged () in
    let st_ns = st_ns -. fg_ns in
    active := false;
    n_spans := 0;
    ( (float_of_int (t1 - t0) -. fg_ns) /. kf,
      ev_ns /. kf,
      ev_w /. kf,
      mk_ns /. kf,
      mk_w /. kf,
      (st_ns -. mk_ns) /. kf )
  in
  let a = once () and b = once () and c = once () in
  let pick f = median3 (f a) (f b) (f c) in
  let start, idx, spans = saved in
  start_layer := start;
  op_index := idx;
  n_spans := spans;
  step_ns := int_of_float (Float.max 0.0 (pick (fun (_, _, _, _, _, x) -> x)));
  {
    event_ns = pick (fun (x, _, _, _, _, _) -> x);
    event_resid_ns = pick (fun (_, x, _, _, _, _) -> x);
    event_resid_words = pick (fun (_, _, x, _, _, _) -> x);
    mark_resid_ns = pick (fun (_, _, _, x, _, _) -> x);
    mark_resid_words = pick (fun (_, _, _, _, x, _) -> x);
  }

(* Per-layer self time and allocation over the kept ops. Each event
   leaves the probe's calibrated residual plus the library's own cost of
   building and writing it ([lib_ns], [lib_words], measured in place)
   charged to the segment it ended; each mark leaves its residual. Both
   are removed. A layer never goes below zero. *)
let calibrated cal ~lib_ns ~lib_words =
  Array.map
    (fun l ->
      let i = layer_index l in
      let ns =
        float_of_int total.ns.(i)
        -. (float_of_int total.ev_ends.(i) *. (cal.event_resid_ns +. lib_ns))
        -. (float_of_int total.mark_ends.(i) *. cal.mark_resid_ns)
      in
      let words =
        total.words.(i)
        -. (float_of_int total.ev_ends.(i) *. (cal.event_resid_words +. lib_words))
        -. (float_of_int total.mark_ends.(i) *. cal.mark_resid_words)
      in
      (l, Float.max 0.0 ns, Float.max 0.0 words))
    layers

(* Events the current op reached. *)
let op_events () = Array.fold_left ( + ) 0 op.ev_ends
let op_marks () = Array.fold_left ( + ) 0 op.mark_ends
let op_charged () = Array.fold_left ( + ) 0 op.ns

let total_points p = total.points.(point_index p)

(* --- Chrome trace export -------------------------------------------------- *)

(* One track per layer, wall-clock microseconds since the traced phase
   began, each span tagged with its op index. *)
let write_chrome path =
  let b = Buffer.create (1 lsl 20) in
  Buffer.add_string b "{\"traceEvents\":[";
  Array.iteri
    (fun i l ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
        (i + 1) (layer_name l))
    layers;
  for s = 0 to !n_spans - 1 do
    Printf.bprintf b
      ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d}}"
      (layer_name layers.(span_layer.(s)))
      (span_layer.(s) + 1)
      (float_of_int span_start.(s) /. 1e3)
      (float_of_int (span_end.(s) - span_start.(s)) /. 1e3)
      span_op.(s)
  done;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc
