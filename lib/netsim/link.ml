module Rng = Scallop_util.Rng
module Trace = Scallop_obs.Trace

type jitter =
  | No_jitter
  | Uniform of int
  | Heavy_tail of { median_ns : float; sigma : float }

type loss_model =
  | Iid of float
  | Gilbert of { avg : float; burst_len : float }

type config = {
  rate_bps : float;
  propagation_ns : int;
  queue_bytes : int;
  loss : float;
  loss_model : loss_model option;
  jitter : jitter;
  reorder : float;
}

let default =
  {
    rate_bps = 100e6;
    propagation_ns = 5_000_000;
    queue_bytes = 256 * 1024;
    loss = 0.0;
    loss_model = None;
    jitter = No_jitter;
    reorder = 0.0;
  }

type t = {
  engine : Engine.t;
  rng : Rng.t;
  mutable cfg : config;
  name : string;  (** identity cited by drop events / attribution *)
  sink : Dgram.t -> unit;
  mutable busy_until : int;
  mutable queued_bytes : int;
  mutable in_bad_state : bool;  (** Gilbert-Elliott chain state *)
  mutable delivered : int;
  mutable dropped : int;
}

let create ?(name = "") engine rng cfg ~sink =
  {
    engine;
    rng;
    cfg;
    name;
    sink;
    busy_until = 0;
    queued_bytes = 0;
    in_bad_state = false;
    delivered = 0;
    dropped = 0;
  }

let name t = t.name

let tx_time_ns cfg size =
  if cfg.rate_bps = infinity then 0
  else int_of_float (float_of_int (size * 8) /. cfg.rate_bps *. 1e9)

(* Reordered packets are held back roughly one to two packet-train times,
   enough to land behind their successors. *)
let reorder_extra_ns t = 500_000 + Rng.int t.rng 1_500_000

(* Advance the loss process one packet and decide this packet's fate. *)
let lose_packet t cfg =
  match cfg.loss_model with
  | None | Some (Iid _) ->
      let p = match cfg.loss_model with Some (Iid p) -> p | _ -> cfg.loss in
      Rng.bernoulli t.rng p
  | Some (Gilbert { avg; burst_len }) ->
      let p_bad_to_good = 1.0 /. Float.max 1.0 burst_len in
      let stationary_bad = Float.min 0.95 avg in
      let p_good_to_bad =
        stationary_bad *. p_bad_to_good /. Float.max 0.001 (1.0 -. stationary_bad)
      in
      if t.in_bad_state then begin
        if Rng.bernoulli t.rng p_bad_to_good then t.in_bad_state <- false
      end
      else if Rng.bernoulli t.rng p_good_to_bad then t.in_bad_state <- true;
      t.in_bad_state

let send t dgram =
  let cfg = t.cfg in
  let size = Dgram.wire_size dgram in
  (* the causal timeline only follows packets that carry a trace id, so
     untraced traffic costs exactly this one comparison *)
  let traced = dgram.Dgram.trace >= 0 && Trace.enabled Trace.Packet in
  if lose_packet t cfg then begin
    t.dropped <- t.dropped + 1;
    if traced then
      Trace.instant ~ts:(Engine.now t.engine) ~trace:dgram.Dgram.trace ~cat:"link"
        "link_drop" ~args:[ ("reason", Trace.S "loss"); ("link", Trace.S t.name) ];
    (* the datagram dies here: recycle a pooled payload *)
    Dgram.release dgram
  end
  else if t.queued_bytes + size > cfg.queue_bytes then begin
    t.dropped <- t.dropped + 1;
    if traced then
      Trace.instant ~ts:(Engine.now t.engine) ~trace:dgram.Dgram.trace ~cat:"link"
        "link_drop"
        ~args:
          [
            ("reason", Trace.S "queue");
            ("link", Trace.S t.name);
            ("queued_bytes", Trace.I t.queued_bytes);
          ];
    Dgram.release dgram
  end
  else begin
    let now = Engine.now t.engine in
    let start = max now t.busy_until in
    let tx = tx_time_ns cfg size in
    let departure = start + tx in
    t.busy_until <- departure;
    if traced then
      Trace.instant ~ts:now ~trace:dgram.Dgram.trace ~cat:"link" "link_enqueue"
        ~args:
          [
            ("size", Trace.I size);
            ("departure_ns", Trace.I departure);
            ("queued_bytes", Trace.I t.queued_bytes);
          ];
    (* zero serialization time means zero queue occupancy: the release
       event would fire at the same instant it was scheduled, so skip the
       bookkeeping entirely rather than pay two event-queue operations per
       datagram on ideal links *)
    if tx > 0 then begin
      t.queued_bytes <- t.queued_bytes + size;
      Engine.at t.engine ~time:departure (fun () ->
          t.queued_bytes <- t.queued_bytes - size)
    end;
    let jitter =
      match cfg.jitter with
      | No_jitter -> 0
      | Uniform n -> if n > 0 then Rng.int t.rng (n + 1) else 0
      | Heavy_tail { median_ns; sigma } ->
          int_of_float (Rng.lognormal t.rng ~mu:(log median_ns) ~sigma)
    in
    let extra = if Rng.bernoulli t.rng cfg.reorder then reorder_extra_ns t else 0 in
    let arrival = departure + cfg.propagation_ns + jitter + extra in
    Engine.at t.engine ~time:arrival (fun () ->
        t.delivered <- t.delivered + 1;
        if dgram.Dgram.trace >= 0 && Trace.enabled Trace.Packet then
          Trace.instant ~ts:arrival ~trace:dgram.Dgram.trace ~cat:"link" "link_deliver"
            ~args:[ ("size", Trace.I size) ];
        t.sink dgram)
  end

let set_rate t rate = t.cfg <- { t.cfg with rate_bps = rate }
let set_loss t loss = t.cfg <- { t.cfg with loss }
let delivered t = t.delivered
let dropped t = t.dropped
