module Engine = Netsim.Engine
module Addr = Scallop_util.Addr
module Trace = Scallop_obs.Trace

type config = {
  beat_every_ns : int;
  promote_after : int;
  compact_every : int;
}

let default = { beat_every_ns = 250_000_000; promote_after = 2; compact_every = 32 }

let standby_ip = Addr.ip_of_string "10.255.0.2"

type t = {
  engine : Engine.t;
  cfg : config;
  journal : Controller.persisted Journal.t;
  primary : Controller.t;
  standby : Controller.t;
  mutable missed : int;  (** consecutive beats with no live acting primary *)
  mutable promotions : int;
  mutable last_compacted : int;  (** journal index the latest snapshot covers *)
  mutable running : bool;
}

let instances t = [ t.primary; t.standby ]

(* The instance a workload should talk to: the live acting primary. Under
   [Mutation.Skip_fencing_check] two instances can both believe they are
   acting — route to the freshest fence, like a client following the
   cluster's advertised leader; the deposed one keeps executing whatever
   is already in flight, which is exactly the split-brain the explorer
   must catch. With no live acting instance (primary killed, standby not
   yet promoted) fall back to the last instance that acted, dead or not:
   callers get [Unavailable] and retry, the same contract a real client
   library exposes mid-failover, and its intent is what the agents were
   last programmed with. *)
let endpoint t =
  let acting = List.filter (fun c -> Controller.role c = Controller.Acting) (instances t) in
  let rank c = (Controller.alive c, Controller.fence c) in
  match List.sort (fun a b -> compare (rank b) (rank a)) acting with
  | c :: _ -> c
  | [] -> t.primary

let acting t =
  List.find_opt (fun c -> Controller.role c = Controller.Acting) (instances t)

let standby_instance t =
  List.find_opt
    (fun c -> Controller.role c = Controller.Standby && Controller.alive c)
    (instances t)

let primary t = t.primary
let standby t = t.standby
let journal t = t.journal
let promotions t = t.promotions

let tail_standby t =
  match standby_instance t with
  | None -> ()
  | Some sb ->
      ignore (Controller.apply_tail sb);
      if
        t.cfg.compact_every > 0
        && Controller.journal_applied sb - t.last_compacted >= t.cfg.compact_every
      then begin
        Controller.compact_journal sb;
        t.last_compacted <- Controller.journal_applied sb
      end

let do_promote t sb =
  Controller.promote sb;
  t.promotions <- t.promotions + 1;
  t.missed <- 0

(* One heartbeat of the cluster manager: lease check on whoever is
   acting, tail (and periodically compact) the journal on the standby,
   and count missed beats against a dead primary until the standby is
   promoted. *)
let beat t =
  if not t.running then false
  else begin
    List.iter
      (fun c -> if Controller.role c = Controller.Acting then Controller.refresh_role c)
      (instances t);
    tail_standby t;
    (match acting t with
    | Some c when Controller.alive c -> t.missed <- 0
    | _ -> (
        t.missed <- t.missed + 1;
        if t.missed >= t.cfg.promote_after then
          match standby_instance t with
          | Some sb ->
              Trace.instant ~ts:(Engine.now t.engine) ~cat:"ctrl" "ctrl_failover"
                ~args:
                  [
                    ("ctrl", Trace.S (Controller.label sb));
                    ("missed", Trace.I t.missed);
                  ];
              do_promote t sb
          | None -> ()));
    t.running
  end

let create ?(config = default) engine network rng ~agents ?control () =
  let journal = Journal.create () in
  let primary =
    Controller.create engine network rng ~agents ?control ~journal ()
  in
  let standby =
    Controller.create engine network rng ~agents ?control ~journal
      ~standby:true ~label:"ctl1" ~ip:standby_ip ()
  in
  let t =
    {
      engine;
      cfg = config;
      journal;
      primary;
      standby;
      missed = 0;
      promotions = 0;
      last_compacted = -1;
      running = true;
    }
  in
  Engine.every engine ~interval:config.beat_every_ns (fun () -> beat t);
  t

let start_health t = Controller.start_health (endpoint t)

let stop_health t = List.iter Controller.stop_health (instances t)

let kill_primary t =
  match acting t with
  | Some c when Controller.alive c -> Controller.kill c
  | _ -> ()

let promote t =
  match standby_instance t with
  | Some sb -> do_promote t sb
  | None -> ()

let restart_killed t =
  List.iter
    (fun c -> if not (Controller.alive c) then Controller.restart c)
    (instances t)

let stop t =
  t.running <- false;
  stop_health t
