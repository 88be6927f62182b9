(** A unidirectional link with a drop-tail queue, serialization delay,
    propagation delay, and optional iid loss, jitter and reordering.

    Clients in the paper's experiments are characterized by their uplink
    and downlink to the SFU; constraining a downlink at runtime (see
    {!set_rate}) is how the Fig. 14 rate-adaptation scenario emulates a
    deteriorating receiver connection. *)

type jitter =
  | No_jitter
  | Uniform of int  (** extra delay uniform in [0, n] ns *)
  | Heavy_tail of { median_ns : float; sigma : float }
      (** lognormal extra delay — models end-host stack/NIC noise whose
          tail far exceeds its median *)

type loss_model =
  | Iid of float  (** independent loss probability per packet *)
  | Gilbert of { avg : float; burst_len : float }
      (** two-state Gilbert-Elliott chain with [avg] long-run loss rate
          and mean loss-burst length [burst_len] packets (bad state drops
          everything) — wireless-style correlated loss *)

type config = {
  rate_bps : float;  (** Serialization rate. [infinity] = no serialization delay. *)
  propagation_ns : int;
  queue_bytes : int;  (** Drop-tail capacity; packets past this are dropped. *)
  loss : float;  (** iid loss probability in [0,1]; see also [loss_model]. *)
  loss_model : loss_model option;
      (** overrides [loss] when set (kept separate so `{ default with
          loss = p }` stays the common idiom). *)
  jitter : jitter;
  reorder : float;  (** Probability a packet is held back past its successor. *)
}

val default : config
(** 100 Mb/s, 5 ms propagation, 256 KiB queue, no loss/jitter/reorder. *)

type t

val create :
  ?name:string ->
  Engine.t ->
  Scallop_util.Rng.t ->
  config ->
  sink:(Dgram.t -> unit) ->
  t
(** [sink] is invoked at the (virtual) time each surviving packet is
    delivered. [name] identifies the link in drop trace events so
    attribution can cite it (default [""]; {!Netsim.Network} names host
    links ["up:<ip>"] / ["down:<ip>"]). *)

val name : t -> string

val send : t -> Dgram.t -> unit
(** Enqueue a packet at the current engine time. *)

val set_rate : t -> float -> unit
(** Change the serialization rate at runtime (network deterioration). *)

val set_loss : t -> float -> unit

val delivered : t -> int
val dropped : t -> int
