module Addr = Scallop_util.Addr
module Rng = Scallop_util.Rng

type host = { uplink : Link.t; downlink : Link.t }

type t = {
  engine : Engine.t;
  rng : Rng.t;
  hosts : (int, host) Hashtbl.t;
  handlers : (Addr.t, Dgram.t -> unit) Hashtbl.t;
  host_handlers : (int, Dgram.t -> unit) Hashtbl.t;
  mutable undeliverable : int;
}

let create engine rng =
  {
    engine;
    rng;
    hosts = Hashtbl.create 64;
    handlers = Hashtbl.create 64;
    host_handlers = Hashtbl.create 8;
    undeliverable = 0;
  }

(* The delivery point is where a datagram's life ends: once the bound
   handler returns (receivers parse the payload into their own records),
   a pooled replica buffer is recycled. A handler that must retain the
   raw payload past its return — none does today — would have to copy. *)
let deliver t dgram =
  (match Hashtbl.find_opt t.handlers dgram.Dgram.dst with
  | Some handler -> handler dgram
  | None -> (
      match Hashtbl.find_opt t.host_handlers dgram.Dgram.dst.ip with
      | Some handler -> handler dgram
      | None -> t.undeliverable <- t.undeliverable + 1));
  Dgram.release dgram

(* Uplink hands off to the destination host's downlink; the core itself is
   assumed over-provisioned (zero extra delay beyond the two links). *)
let route t dgram =
  match Hashtbl.find_opt t.hosts dgram.Dgram.dst.ip with
  | Some host -> Link.send host.downlink dgram
  | None ->
      t.undeliverable <- t.undeliverable + 1;
      Dgram.release dgram

let add_host t ~ip ?(uplink = Link.default) ?(downlink = Link.default) () =
  (* Links carry a stable name ("up:<ip>" / "down:<ip>") so drop trace
     events identify the culpable edge — what QoE attribution cites. *)
  let ip_s = Addr.ip_to_string ip in
  let up =
    Link.create ~name:("up:" ^ ip_s) t.engine (Rng.split t.rng) uplink
      ~sink:(fun d -> route t d)
  in
  let down =
    Link.create ~name:("down:" ^ ip_s) t.engine (Rng.split t.rng) downlink
      ~sink:(fun d -> deliver t d)
  in
  Hashtbl.replace t.hosts ip { uplink = up; downlink = down }

let bind t addr handler = Hashtbl.replace t.handlers addr handler
let unbind t addr = Hashtbl.remove t.handlers addr
let bind_host t ~ip handler = Hashtbl.replace t.host_handlers ip handler

let send t dgram =
  match Hashtbl.find_opt t.hosts dgram.Dgram.src.ip with
  | Some host ->
      (* A destination with no host can never be delivered: count the drop
         up front instead of simulating an uplink transit whose only
         outcome is the same counter bump two events later. *)
      if Hashtbl.mem t.hosts dgram.Dgram.dst.ip then Link.send host.uplink dgram
      else begin
        t.undeliverable <- t.undeliverable + 1;
        Dgram.release dgram
      end
  | None ->
      t.undeliverable <- t.undeliverable + 1;
      Dgram.release dgram

let uplink t ~ip =
  match Hashtbl.find_opt t.hosts ip with
  | Some h -> h.uplink
  | None -> raise Not_found

let downlink t ~ip =
  match Hashtbl.find_opt t.hosts ip with
  | Some h -> h.downlink
  | None -> raise Not_found

let undeliverable t = t.undeliverable
