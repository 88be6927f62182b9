(** A CPU modelled as a c-server queue with per-packet service times and
    occasional scheduler-induced spikes.

    This is the substrate behind the software-SFU baseline: packet
    processing costs a base time plus a per-byte copy cost, occasionally
    inflated by a heavy-tailed "context switch / interrupt" penalty (paper
    §2.2). Under load, queueing delay — the source of the jitter in
    Figs. 3 and 19 — emerges naturally. *)

type config = {
  cores : int;
  service_ns_per_packet : int;  (** Fixed per-packet cost (syscalls, lookup). *)
  service_ns_per_byte : int;  (** Socket-buffer copy cost. *)
  spike_probability : float;  (** Probability of a scheduler spike per packet. *)
  spike_mu : float;  (** Lognormal mu of the spike, in ns (median = exp mu). *)
  spike_sigma : float;
  max_queue_delay_ns : int;  (** Packets that would wait longer are dropped. *)
  wakeup_latency_ns : int;
      (** Fixed scheduler/socket wakeup latency added to each completion
          without occupying the core — it inflates per-packet latency but
          not CPU utilization. *)
}

val default_server : config
(** One core of a commodity server: ~4 µs per packet + 0.4 ns/B, 1% spikes
    with ~50 µs median, 500 ms queue cap. *)

type t

val create : Engine.t -> Scallop_util.Rng.t -> config -> t

val submit : t -> size:int -> (unit -> unit) -> unit
(** [submit t ~size k] queues a work item of [size] bytes; [k] runs when
    service completes (or never, if the item is dropped on overload). *)

val processed : t -> int
val dropped : t -> int

val utilization : t -> float
(** Aggregate busy fraction since creation at the current engine time. *)

val busy_ns : t -> int
(** Total busy time accumulated; callers can difference it for windowed
    utilization. *)

