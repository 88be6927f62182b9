module Addr = Scallop_util.Addr
module Rng = Scallop_util.Rng
module Metrics = Scallop_obs.Metrics
module Trace = Scallop_obs.Trace
module Engine = Netsim.Engine
module Link = Netsim.Link
module Dgram = Netsim.Dgram
module Control_channel = Netsim.Control_channel

type config = {
  link : Link.config;
  timeout_ns : int;
  max_retries : int;
}

(* An ideal management network: the seam is real (every call is encoded,
   shipped and decoded) but costs nothing, so experiments that don't
   study the control plane are unaffected by its existence. *)
let ideal_link =
  {
    Link.default with
    rate_bps = infinity;
    propagation_ns = 0;
    queue_bytes = max_int / 2;
  }

let default =
  {
    link = ideal_link;
    timeout_ns = Engine.ms 250;
    max_retries = 6;
  }

let degraded ?(loss = 0.0) ~rtt_ns () =
  { default with link = { ideal_link with propagation_ns = rtt_ns / 2; loss } }

type fault = Pass | Drop | Delay of int | Duplicate
type error = [ `Timeout | `Gave_up of int ]

exception
  Timed_out of {
    op : string;
    seq : int;
    attempts : int;
  }

let () =
  Printexc.register_printer (function
    | Timed_out { op; seq; attempts } ->
        Some
          (Printf.sprintf "Rpc_transport.Timed_out(%s, seq %d, %d attempts)" op seq
             attempts)
    | _ -> None)

(* --- server (agent side) --------------------------------------------------- *)

module Server = struct
  type t = {
    engine : Engine.t;
    handler : Rpc.request -> Rpc.reply;
    label : string;  (** agent identity stamped on [rpc_exec] trace events *)
    seen : (Addr.t * int, Rpc.reply) Hashtbl.t;
        (** reply cache keyed by (requester, seq): controller instances
            allocate seqs independently, so two controllers (primary and
            a promoted standby) sharing one seq space must not collide
            in the cache — each runs under its own source address *)
    seen_order : (Addr.t * int) Queue.t;
    mutable reply_fault : (seq:int -> Rpc.reply -> fault) option;
    mutable online : bool;
    (* registry-backed (label [switch="..."]) *)
    rpc_calls : Metrics.counter;
    executed : Metrics.counter;
    replayed : Metrics.counter;
    replies_sent : Metrics.counter;
    decode_errors : Metrics.counter;
    dropped_offline : Metrics.counter;
  }

  let cache_capacity = 1024

  let create engine ?(label = "agent") ~handler () =
    let counter help name = Metrics.counter ~labels:[ ("switch", label) ] ~help name in
    {
      engine;
      handler;
      label;
      seen = Hashtbl.create 64;
      seen_order = Queue.create ();
      reply_fault = None;
      online = true;
      rpc_calls =
        counter "control requests the agent received on the wire (dups included)"
          "scallop_agent_rpc_calls";
      executed = counter "requests that ran the handler" "scallop_rpc_server_executed";
      replayed =
        counter "duplicate requests answered from the reply cache"
          "scallop_rpc_server_replayed";
      replies_sent = counter "replies put on the wire" "scallop_rpc_server_replies";
      decode_errors =
        counter "datagrams that did not decode as a request"
          "scallop_rpc_server_decode_errors";
      dropped_offline =
        counter "requests that arrived while offline" "scallop_rpc_server_dropped_offline";
    }

  let set_reply_fault t f = t.reply_fault <- f
  let set_online t up = t.online <- up

  (* A freshly restarted agent process has no memory of past sequence
     numbers; dropping the cache models that. Retransmits of pre-crash
     requests then re-execute, which is exactly the hazard the
     controller's post-restart full resync exists to repair. *)
  let flush_cache t =
    Hashtbl.reset t.seen;
    Queue.clear t.seen_order

  let remember t key reply =
    Hashtbl.replace t.seen key reply;
    Queue.push key t.seen_order;
    if Queue.length t.seen_order > cache_capacity then
      Hashtbl.remove t.seen (Queue.pop t.seen_order)

  let transmit t ~reply_via ~seq ~reply dgram =
    let action =
      match t.reply_fault with Some f -> f ~seq reply | None -> Pass
    in
    match action with
    | Drop -> ()
    | Delay ns -> Engine.schedule t.engine ~after:ns (fun () -> reply_via dgram)
    | Duplicate ->
        Metrics.incr t.replies_sent;
        reply_via dgram;
        reply_via dgram
    | Pass -> reply_via dgram

  (* At-most-once execution: a seq already answered is replayed from the
     cache, so duplicate deliveries (retries, network duplication) never
     mutate agent state twice. *)
  let deliver t ~reply_via (dgram : Dgram.t) =
    if (not t.online) && not (Mutation.on Mutation.Exec_while_offline) then
      Metrics.incr t.dropped_offline
    else
    match Rpc.decode dgram.payload with
    | exception Rtp.Wire.Parse_error _ -> Metrics.incr t.decode_errors
    | Rpc.Reply _ -> Metrics.incr t.decode_errors
    | Rpc.Request { seq; request } ->
        Metrics.incr t.rpc_calls;
        let key = (dgram.src, seq) in
        let replayed = Hashtbl.mem t.seen key in
        let reply =
          match Hashtbl.find_opt t.seen key with
          | Some cached ->
              Metrics.incr t.replayed;
              if Mutation.on Mutation.Corrupt_replay then Rpc.Error "replay-corrupt"
              else cached
          | None ->
              let reply =
                match t.handler request with
                | r -> r
                | exception Invalid_argument msg -> Rpc.Error msg
              in
              Metrics.incr t.executed;
              remember t key reply;
              reply
        in
        Metrics.incr t.replies_sent;
        let payload = Rpc.encode (Rpc.Reply { seq; reply }) in
        if Trace.enabled Trace.Rpc then begin
          let fence_args =
            match request with
            | Rpc.Fenced { fence; _ } ->
                [
                  ("fence", Trace.I fence);
                  (* a [Stale_fence] answer means the op was refused, not
                     executed — the deposed-epoch rule keys on this *)
                  ( "rejected",
                    Trace.S
                      (match reply with
                      | Rpc.Stale_fence _ -> "true"
                      | _ -> "false") );
                ]
            | _ -> []
          in
          Trace.instant ~ts:(Engine.now t.engine) ~cat:"rpc" "rpc_exec"
            ~args:
              ([
                 ("name", Trace.S (Rpc.request_name request));
                 ("seq", Trace.I seq);
                 ("replayed", Trace.S (if replayed then "true" else "false"));
                 ("src", Trace.S (Addr.to_string dgram.src));
                 ("agent", Trace.S t.label);
                 (* digest of the encoded reply: the replay-identity rule
                    compares a replay's digest against the original's *)
                 ("digest", Trace.I (Hashtbl.hash payload));
               ]
              @ fence_args)
        end;
        transmit t ~reply_via ~seq ~reply (Dgram.v ~src:dgram.dst ~dst:dgram.src payload)
end

(* --- client (controller side) ---------------------------------------------- *)

module Client = struct
  (* One request, from submission to settlement. Both entry points —
     blocking [call] and single-shot [probe] — are this same record
     with different retry parameters. *)
  type pend = {
    p_seq : int;
    p_request : Rpc.request;
    p_max_retries : int;
    p_timeout_ns : int;  (** first attempt's timeout *)
    p_probe : bool;  (** a probe does not count toward [in_flight] *)
    p_start_ns : int;
    mutable p_attempts : int;
    mutable p_settled : bool;
    p_on_result : (Rpc.reply, error) result -> unit;
  }

  type t = {
    engine : Engine.t;
    cfg : config;
    local : Addr.t;
    remote : Addr.t;
    label : string;
    channel : Control_channel.t;
    pending : (int, pend) Hashtbl.t;
    mutable in_flight : int;  (** unsettled calls (probes excluded) *)
    mutable request_fault : (seq:int -> attempt:int -> Rpc.request -> fault) option;
    mutable next_seq : int;
    mutable muted : bool;
        (** a killed controller transmits nothing — not even retransmits
            of in-flight requests or probes; its pending calls just time
            out in virtual time *)
    (* registry-backed (label [client="..."]) *)
    calls : Metrics.counter;
    wire_requests : Metrics.counter;
    retries : Metrics.counter;
    replies_received : Metrics.counter;
    stale_replies : Metrics.counter;
    failures : Metrics.counter;
    batch_flushes : Metrics.counter;
    batched_ops : Metrics.counter;
    batch_size : Scallop_util.Stats.Histogram.t;
    pipeline_depth : Metrics.gauge;
  }

  (* each retry doubles the previous attempt's timeout, capped at 2 s *)
  let backoff = 2.0
  let max_backoff_ns = Engine.ms 2_000

  let backoff_ns ~base attempt =
    let scaled = float_of_int base *. (backoff ** float_of_int attempt) in
    min max_backoff_ns (int_of_float scaled)

  let transmit t ~seq ~attempt request dgram =
    if t.muted then ()
    else
    let action =
      match t.request_fault with
      | Some f -> f ~seq ~attempt request
      | None -> Pass
    in
    match action with
    | Drop -> ()
    | Delay ns ->
        Metrics.incr t.wire_requests;
        Engine.schedule t.engine ~after:ns (fun () ->
            Control_channel.send_fwd t.channel dgram)
    | Duplicate ->
        Metrics.add t.wire_requests 2;
        Control_channel.send_fwd t.channel dgram;
        Control_channel.send_fwd t.channel dgram
    | Pass ->
        Metrics.incr t.wire_requests;
        Control_channel.send_fwd t.channel dgram

  (* one complete span per submission, stamped whether it settled or
     timed out — retries stay inside the span rather than becoming
     events *)
  let span t p ~ok =
    if Trace.enabled Trace.Rpc then
      Trace.complete ~ts:p.p_start_ns
        ~dur:(Engine.now t.engine - p.p_start_ns)
        ~cat:"rpc"
        (Rpc.request_name p.p_request)
        ~args:
          [
            ("client", Trace.S t.label);
            ("seq", Trace.I p.p_seq);
            ("attempts", Trace.I p.p_attempts);
            ("ok", Trace.S (if ok then "true" else "false"));
          ]

  let set_in_flight t n =
    t.in_flight <- n;
    Metrics.set t.pipeline_depth (float_of_int n)

  (* Settle a request (at most once). *)
  let settle t p result =
    if not p.p_settled then begin
      p.p_settled <- true;
      Hashtbl.remove t.pending p.p_seq;
      if not p.p_probe then set_in_flight t (t.in_flight - 1);
      span t p ~ok:(Result.is_ok result);
      p.p_on_result result
    end

  (* One attempt: (maybe) put the request on the wire, and arm the retry
     timer. Retries reuse the seq — the agent's replay cache depends on
     it — with exponentially backed-off timeouts. *)
  let rec send_attempt t p ~attempt =
    let payload = Rpc.encode (Rpc.Request { seq = p.p_seq; request = p.p_request }) in
    transmit t ~seq:p.p_seq ~attempt p.p_request
      (Dgram.v ~src:t.local ~dst:t.remote payload);
    Engine.schedule t.engine
      ~after:(backoff_ns ~base:p.p_timeout_ns attempt)
      (fun () ->
        if not p.p_settled then
          if attempt >= p.p_max_retries then
            if p.p_max_retries = 0 then
              (* single shot (the probe lane): a missed reply is a data
                 point, not a failure worth the retry ladder *)
              settle t p (Error `Timeout)
            else begin
              Metrics.incr t.failures;
              settle t p (Error (`Gave_up p.p_attempts))
            end
          else begin
            Metrics.incr t.retries;
            p.p_attempts <- p.p_attempts + 1;
            send_attempt t p ~attempt:(attempt + 1)
          end)

  let on_reply t (dgram : Dgram.t) =
    match Rpc.decode dgram.payload with
    | exception Rtp.Wire.Parse_error _ -> Metrics.incr t.stale_replies
    | Rpc.Request _ -> Metrics.incr t.stale_replies
    | Rpc.Reply { seq; reply } -> (
        match Hashtbl.find_opt t.pending seq with
        | Some p ->
            Metrics.incr t.replies_received;
            settle t p (Ok reply)
        | None ->
            (* duplicate or post-timeout reply; the call already settled *)
            Metrics.incr t.stale_replies)

  let connect engine rng ?(config = default) ?(label = "ctl") ~local ~remote server =
    let channel =
      Control_channel.create engine rng ~fwd:config.link ~rev:config.link ()
    in
    let labels = [ ("client", label) ] in
    let counter help name = Metrics.counter ~labels ~help name in
    let t =
      {
        engine;
        cfg = config;
        local;
        remote;
        label;
        channel;
        pending = Hashtbl.create 8;
        in_flight = 0;
        request_fault = None;
        next_seq = 0;
        muted = false;
        calls = counter "RPC calls issued" "scallop_rpc_calls";
        wire_requests =
          counter "request datagrams put on the wire (retries/dups included)"
            "scallop_rpc_wire_requests";
        retries = counter "retransmissions after a timeout" "scallop_rpc_retries";
        replies_received = counter "replies that settled a call" "scallop_rpc_replies";
        stale_replies =
          counter "late/duplicate replies for settled calls" "scallop_rpc_stale_replies";
        failures = counter "calls that exhausted every retry" "scallop_rpc_failures";
        batch_flushes =
          counter "Batch requests submitted (one per controller buffer flush)"
            "scallop_rpc_batch_flushes";
        batched_ops =
          counter "ops carried inside Batch requests" "scallop_rpc_batched_ops";
        batch_size =
          Metrics.histogram ~labels ~help:"ops per Batch request"
            ~bounds:(Scallop_util.Stats.Histogram.log_bounds ~lo:1.0 ~hi:1000.0 ~per_decade:5)
            "scallop_rpc_batch_size";
        pipeline_depth =
          (* the gauge tracks [in_flight]; its name and help text are
             part of the [metrics] output, kept stable for dashboards
             and output diffs *)
          Metrics.gauge ~labels ~help:"window-occupying requests currently in flight"
            "scallop_rpc_batch_pipeline_depth";
      }
    in
    Control_channel.set_fwd_sink channel (fun dgram ->
        Server.deliver server ~reply_via:(Control_channel.send_rev channel) dgram);
    Control_channel.set_rev_sink channel (fun dgram -> on_reply t dgram);
    t

  let set_request_fault t f = t.request_fault <- f
  let set_muted t m = t.muted <- m

  (* Every request goes on the wire at once; [call] and [probe] differ
     only in their retry ladder and in whether they count as in flight. *)
  let submit t ~probe ~max_retries ~timeout_ns request ~on_result =
    Metrics.incr t.calls;
    (match request with
    | Rpc.Batch ops | Rpc.Fenced { op = Rpc.Batch ops; _ } ->
        Metrics.incr t.batch_flushes;
        let n = List.length ops in
        Metrics.add t.batched_ops n;
        Scallop_util.Stats.Histogram.observe t.batch_size (float_of_int n)
    | _ -> ());
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let p =
      {
        p_seq = seq;
        p_request = request;
        p_max_retries = max_retries;
        p_timeout_ns = timeout_ns;
        p_probe = probe;
        p_start_ns = Engine.now t.engine;
        p_attempts = 1;
        p_settled = false;
        p_on_result = on_result;
      }
    in
    Hashtbl.replace t.pending seq p;
    if not probe then set_in_flight t (t.in_flight + 1);
    send_attempt t p ~attempt:0;
    p

  (* Block (in simulation terms) until the reply lands: pump the engine
     one event at a time, which lets the rest of the simulated world —
     media, timers, other meetings — keep running while this call is in
     flight. With the ideal default link the reply arrives at the same
     instant and no virtual time passes. *)
  let call t request =
    let cell = ref None in
    let p =
      submit t ~probe:false ~max_retries:t.cfg.max_retries ~timeout_ns:t.cfg.timeout_ns
        request ~on_result:(fun r -> cell := Some r)
    in
    let rec pump () =
      match !cell with
      | Some r -> r
      | None ->
          if Engine.step t.engine then pump ()
          else begin
            (* the world ran dry while the reply (or its retry timer) was
               still outstanding — nothing can settle this call anymore *)
            settle t p (Error `Timeout);
            Error `Timeout
          end
    in
    pump ()

  (* One shot, no retries, never blocks: the heartbeat primitive. *)
  let probe t ?(timeout_ns = t.cfg.timeout_ns) request ~on_result =
    ignore (submit t ~probe:true ~max_retries:0 ~timeout_ns request ~on_result)

  let in_flight t = t.in_flight

  let channel t = t.channel
  let request_link t = Control_channel.fwd_link t.channel
  let reply_link t = Control_channel.rev_link t.channel
end
