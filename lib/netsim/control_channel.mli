(** An out-of-band bidirectional channel: a pair of {!Link}s wired
    directly between two endpoints, without traversing {!Network} host
    links. This models a management/control network (the SDN control
    channel between a controller and a switch CPU) whose latency, loss
    and queueing are configured independently of the media path — and
    whose traffic does not perturb media-link state.

    Sinks may be attached after creation (the two endpoints typically
    come up in either order); datagrams arriving before a sink is set
    are dropped. *)

type t

type direction = Fwd | Rev

type verdict =
  | Deliver  (** hand the datagram to the sink now *)
  | Delay of int  (** re-deliver after [n] ns (clamped to >= 0) *)
  | Drop  (** discard *)

val create :
  Engine.t ->
  Scallop_util.Rng.t ->
  ?fwd:Link.config ->
  ?rev:Link.config ->
  unit ->
  t
(** Both directions default to {!Link.default}. Each direction gets an
    independent split of [rng]. *)

val set_fwd_sink : t -> (Dgram.t -> unit) -> unit
(** Receive datagrams sent with {!send_fwd} (the "forward" endpoint). *)

val set_rev_sink : t -> (Dgram.t -> unit) -> unit

val set_interposer : t -> (dir:direction -> Dgram.t -> verdict) option -> unit
(** Install (or clear) a delivery interposer, consulted once per datagram
    {e after} the link has decided to deliver it (so link loss/jitter still
    apply first). Used by {!Scallop_mc} to turn control-plane delivery into
    bounded delay/reorder/drop choice points. Default: none — deliveries
    go straight to the sink. *)

val send_fwd : t -> Dgram.t -> unit
(** Enqueue on the forward-direction link at the current engine time. *)

val send_rev : t -> Dgram.t -> unit

val fwd_link : t -> Link.t
(** The underlying links, for delivery statistics and runtime
    degradation ({!Link.set_rate} / {!Link.set_loss}). *)

val rev_link : t -> Link.t

