(** Control-plane RPC transport: carries {!Rpc} messages between the
    controller and a switch agent over a {!Netsim.Control_channel}
    (an out-of-band link pair with its own latency/loss/queueing).

    Reliability is the classic request/response recipe:

    - per-request timeout with bounded exponential-backoff retry
      (client side);
    - sequence numbers, reused across retries of the same request;
    - an agent-side reply cache keyed by (requester address, sequence
      number), so duplicate deliveries replay the original reply
      instead of re-executing — at-most-once execution under
      at-least-once delivery, even with several controller instances
      (primary and standby) allocating sequence numbers independently;
    - a fault-injection hook on each side (drop / delay / duplicate by
      predicate) for experiments on a degraded control plane.

    The client has two call shapes, both on the wire at once:
    {!Client.call} blocks in simulation terms — it pumps the event
    engine one event at a time until its reply lands (or it gives up),
    so media and timers elsewhere in the simulated world keep running
    while a call is in flight — and {!Client.probe} is a single
    non-blocking attempt, the heartbeat. With the ideal default link the
    round trip completes at the same virtual instant. *)

type config = {
  link : Netsim.Link.config;  (** both directions of the control channel *)
  timeout_ns : int;
      (** first attempt's timeout; each retry doubles it, up to 2 s *)
  max_retries : int;  (** retransmissions after the first attempt *)
}

val default : config
(** Ideal link (zero latency/loss, infinite rate), 250 ms initial
    timeout, 6 retries. *)

val degraded : ?loss:float -> rtt_ns:int -> unit -> config
(** [default] with the given round-trip propagation and iid loss on
    each direction of the control link. *)

type fault = Pass | Drop | Delay of int | Duplicate

type error = [ `Timeout | `Gave_up of int ]
(** How a call can fail without a reply: [`Gave_up n] after [n]
    attempts exhausted every retry; [`Timeout] when the simulated
    world ran dry (or a single-shot {!Client.probe} expired) with the
    reply still outstanding. Values, not exceptions — an unreachable
    agent is an expected input to the controller's failure detector,
    not an error condition. *)

exception Timed_out of { op : string; seq : int; attempts : int }
(** The exception face of {!error}, raised by a controller without
    health tracking when a call fails ({!Controller.start_health}). *)

module Server : sig
  type t

  val create :
    Netsim.Engine.t ->
    ?label:string ->
    handler:(Rpc.request -> Rpc.reply) ->
    unit ->
    t
  (** [handler] executes a request against agent state; an
      [Invalid_argument] it raises is shipped back as [Rpc.Error].
      [label] (default ["agent"]) identifies this server on its
      [rpc_exec] trace events, correlating them with controller-side
      health events about the same switch, and in the metrics registry
      (label [switch="..."]): [scallop_agent_rpc_calls] counts request
      datagrams delivered on the wire (duplicates included), and
      [scallop_rpc_server_executed], [_replayed] (duplicates answered
      from the reply cache), [_replies], [_decode_errors] and
      [_dropped_offline] (requests that arrived while offline) the
      rest. *)

  val set_reply_fault : t -> (seq:int -> Rpc.reply -> fault) option -> unit

  val set_online : t -> bool -> unit
  (** [set_online t false] models a crashed agent process: every
      delivered request is dropped on the floor (counted in
      [scallop_rpc_server_dropped_offline]), so client calls time out
      exactly as they would against a dead host. *)

  val flush_cache : t -> unit
  (** Drop the reply cache — a freshly restarted process remembers no
      sequence numbers, so pre-crash retransmits re-execute instead of
      replaying (the drift the post-restart resync repairs). *)
end

module Client : sig
  type t

  val connect :
    Netsim.Engine.t ->
    Scallop_util.Rng.t ->
    ?config:config ->
    ?label:string ->
    local:Scallop_util.Addr.t ->
    remote:Scallop_util.Addr.t ->
    Server.t ->
    t
  (** Builds the control channel to [Server] and wires both sinks.
      [local]/[remote] only label the datagrams (the channel is
      point-to-point). [label] (default ["ctl"]) names this client in
      its trace spans and in the metrics registry (label
      [client="..."]) on [scallop_rpc_calls], [_wire_requests] (request
      datagrams put on the wire, retries and duplicates included),
      [_retries], [_replies], [_stale_replies] (late or duplicate
      replies for settled calls), [_failures] (calls that exhausted
      every retry), [_batch_flushes] and [_batched_ops] (ops inside
      those batches). *)

  val call : t -> Rpc.request -> (Rpc.reply, error) result
  (** Put the request on the wire and pump the engine until it settles.
      Returns the (possibly replayed) reply, or [Error (`Gave_up n)]
      once [max_retries] retransmissions all expire — never raises, so
      the controller can treat an unreachable agent as a state
      transition rather than an exception. Calls may nest: an event the
      pump runs can issue its own [call]. Under loss, nested calls can
      execute on the server out of issue order (an outer request's
      retransmit may land after an inner one); callers needing
      server-side order ship the ordered ops inside one [Rpc.Batch].
      When tracing is at level [Rpc] or above, each call emits one
      complete span (category ["rpc"], named after the request) whose
      duration covers every retry, with [seq]/[attempts]/[ok] args. *)

  val probe : t -> ?timeout_ns:int -> Rpc.request -> on_result:((Rpc.reply, error) result -> unit) -> unit
  (** Single attempt, never blocks: [on_result] fires from the reply
      event, or with [Error `Timeout] after [timeout_ns] (default: the
      config's first-attempt timeout). The heartbeat primitive — a
      missed probe is a data point for the failure detector, not a call
      worth the retry ladder. *)

  val in_flight : t -> int
  (** Unsettled {!call}s (probes excluded). *)

  val set_request_fault :
    t -> (seq:int -> attempt:int -> Rpc.request -> fault) option -> unit

  val set_muted : t -> bool -> unit
  (** [set_muted t true] silences the client entirely: nothing reaches
      the wire — not new requests, not retransmits of in-flight ones,
      not probes. Pending calls and probes settle through their normal
      timeout ladders in virtual time. Models a killed controller
      process whose channel endpoints still exist in the simulation. *)

  val channel : t -> Netsim.Control_channel.t

  val request_link : t -> Netsim.Link.t
  (** The controller->agent direction — its [Link.delivered] is the
      message count the agent observed. *)

  val reply_link : t -> Netsim.Link.t
end
