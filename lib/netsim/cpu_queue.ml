module Rng = Scallop_util.Rng

type config = {
  cores : int;
  service_ns_per_packet : int;
  service_ns_per_byte : int;
  spike_probability : float;
  spike_mu : float;
  spike_sigma : float;
  max_queue_delay_ns : int;
  wakeup_latency_ns : int;
}

let default_server =
  {
    cores = 1;
    service_ns_per_packet = 4_000;
    service_ns_per_byte = 0;
    spike_probability = 0.01;
    spike_mu = log 50_000.0;
    spike_sigma = 0.8;
    max_queue_delay_ns = 500_000_000;
    wakeup_latency_ns = 20_000;
  }

type t = {
  engine : Engine.t;
  rng : Rng.t;
  cfg : config;
  free_at : int array;  (** Per-core time at which the core becomes idle. *)
  mutable busy_ns : int;
  mutable processed : int;
  mutable dropped : int;
}

let create engine rng cfg =
  if cfg.cores <= 0 then invalid_arg "Cpu_queue.create: cores";
  {
    engine;
    rng;
    cfg;
    free_at = Array.make cfg.cores 0;
    busy_ns = 0;
    processed = 0;
    dropped = 0;
  }

let least_loaded t =
  let best = ref 0 in
  for i = 1 to Array.length t.free_at - 1 do
    if t.free_at.(i) < t.free_at.(!best) then best := i
  done;
  !best

let service_time t ~size =
  let base = t.cfg.service_ns_per_packet + (size * t.cfg.service_ns_per_byte) in
  if Rng.bernoulli t.rng t.cfg.spike_probability then
    base + int_of_float (Rng.lognormal t.rng ~mu:t.cfg.spike_mu ~sigma:t.cfg.spike_sigma)
  else base

let submit t ~size k =
  let now = Engine.now t.engine in
  let core = least_loaded t in
  let start = max now t.free_at.(core) in
  if start - now > t.cfg.max_queue_delay_ns then t.dropped <- t.dropped + 1
  else begin
    let svc = service_time t ~size in
    let finish = start + svc in
    t.free_at.(core) <- finish;
    t.busy_ns <- t.busy_ns + svc;
    Engine.at t.engine ~time:(finish + t.cfg.wakeup_latency_ns) (fun () ->
        t.processed <- t.processed + 1;
        k ())
  end

let processed t = t.processed
let dropped t = t.dropped
let busy_ns t = t.busy_ns

let utilization t =
  let elapsed = Engine.now t.engine in
  if elapsed = 0 then 0.0
  else
    let capacity = float_of_int (elapsed * t.cfg.cores) in
    min 1.0 (float_of_int t.busy_ns /. capacity)
