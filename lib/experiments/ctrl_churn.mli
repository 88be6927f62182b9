(** Control-plane churn macro-benchmark: the campus trace's
    join/leave/migrate/screen-share sequence replayed back-to-back (its
    session churn compressed 100-1000x onto the controller) over a lossy
    control channel, once with per-op RPCs and once with control-plane
    batching. Its claim requires batched throughput to be at least 5x
    per-op throughput at 30% control loss. *)

type side = {
  ops : int;
  elapsed_s : float;  (** virtual seconds the replay occupied *)
  ops_per_sec : float;
  mean_ms : float;
  p50_ms : float;
  p99_ms : float;
  wire_requests : int;
  retries : int;
  failures : int;
  batches : int;
  batched_ops : int;
}

type result = {
  events : int;
  loss : float;
  rtt_ms : int;
  per_op : side;
  batched : side;
  speedup : float;  (** batched ops/sec over per-op ops/sec *)
}

val compute : ?loss:float -> ?rtt_ms:int -> unit -> result
(** Deterministic (fixed seed): both sides replay the identical event
    schedule. Defaults: 30% loss each way, 20 ms control RTT. *)

val claims : result Claim.t list
val print : result -> unit
