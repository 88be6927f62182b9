module Addr = Scallop_util.Addr
module Rng = Scallop_util.Rng
module Engine = Netsim.Engine
module Network = Netsim.Network
module Client = Webrtc.Client
module Metrics = Scallop_obs.Metrics
module Trace = Scallop_obs.Trace

type meeting_id = int
type participant_id = int

type stream_kind = Camera | Screen

type participant = {
  pid : participant_id;
  meeting : meeting_id;
  client : Client.t;
  home : int;  (** index of the switch this participant attaches to *)
  egress_port : int;
  sends : bool;
  video_ssrc : int;
  audio_ssrc : int;
  renditions : (int * int) array;  (** simulcast (ssrc, bitrate); [||] for SVC *)
  mutable send_conn : Client.connection option;
  mutable recv_conns : (participant_id * Client.connection) list;
  mutable sites : int list;  (** switches where this participant is registered *)
  mutable cam_ports : (int * int) list;  (** switch -> camera uplink port there *)
  mutable screen_ports : (int * int) list;  (** switch -> screen uplink port *)
  mutable screen : (int * Client.connection) option;  (** (screen ssrc, send conn) *)
  mutable screen_recv_conns : (participant_id * Client.connection) list;
}

(* A meeting's presence on one switch. All session mutation flows to the
   switch agent through the control-plane RPC client for that switch
   index — never by calling agent functions directly. *)
type site = {
  dp : Dataplane.t;
  agent_mid : Switch_agent.meeting_id;
}

(* Everything needed to re-issue one Register_leg verbatim during a
   resync. Recorded at leg creation because the values (allocated SFU
   ports, the receiver connection's address) exist nowhere else in
   controller state once the original RPC has been sent. *)
type leg_intent = {
  li_idx : int;  (** switch the leg lives on *)
  li_kind : stream_kind;
  li_sender : participant_id;
  li_uplink_port : int;
  li_receiver : participant_id;  (** real pid, or relay pseudo pid *)
  li_leg_port : int;
  li_dst : Addr.t;
  li_adaptive : bool;
}

type meeting = {
  mid : meeting_id;
  primary : int;  (** default home switch for joiners *)
  sites : (int, site) Hashtbl.t;
  mutable members : participant_id list;
  mutable leg_intents_rev : leg_intent list;  (** newest first *)
  mutable pair_targets : ((participant_id * participant_id) * Av1.Dd.decode_target) list;
}

(* --- failure-detector state ---------------------------------------------------

   Per-agent health is a three-state machine driven by heartbeat probes:
   Healthy -(missed probes)-> Suspect -(more)-> Dead -(pong)-> Healthy.
   While an agent is Dead (or mid-heal) the wire side of its session
   mutations is skipped — intent still updates — and the agent is marked
   out of sync. A pong over a quiet channel heals it: a rebooted or
   out-of-sync agent is resynced from intent, an agent that comes back
   at the same epoch having missed nothing simply turns Healthy. *)

type agent_health = Healthy | Suspect | Dead

type health_config = {
  heartbeat_every_ns : int;
  probe_timeout_ns : int;
  suspect_after : int;  (** consecutive missed probes before Suspect *)
  dead_after : int;  (** consecutive missed probes before Dead *)
}

let default_health_config =
  {
    heartbeat_every_ns = Engine.ms 500;
    probe_timeout_ns = Engine.ms 250;
    suspect_after = 2;
    dead_after = 4;
  }

type recovery_event = {
  re_agent : int;
  re_detected_ns : int;  (** when the agent was declared Dead *)
  re_recovered_ns : int;  (** when the resync finished *)
  re_ops : int;  (** RPCs it took *)
}

(* One wire op waiting in a per-agent batch buffer. The agent-side
   meeting id is resolved at flush time, not at buffering time: the site
   may still be provisional when the op is buffered. *)
type buffered_op = {
  b_mid : meeting_id;
  b_build : agent_mid:int -> Rpc.request;
}

type agent_state = {
  mutable ah : agent_health;
  mutable ah_epoch : int;  (** last epoch seen in a Pong; -1 before the first *)
  mutable ah_missed : int;  (** consecutive missed probes *)
  mutable ah_detected_ns : int;
  mutable ah_healing : bool;  (** a resync is in flight; ignore probe results *)
  mutable ah_observed : int;
      (** latest epoch any pong carried, tracked even while a heal is in
          flight — a change mid-resync means the agent rebooted under the
          replay and the resync must not commit *)
  mutable ah_in_sync : bool;
      (** the agent holds current intent as far as the controller knows:
          cleared by a skipped op or a resync that did not complete, set
          only by a resync that completed with nothing skipped under it *)
  mutable ah_skipped : int;  (** ops skipped since the last complete resync *)
  ah_gauge : Metrics.gauge;
  ah_transitions : Metrics.counter array;
      (** detector transitions into each state, indexed by
          {!health_rank} — a flapping agent shows up as matched
          suspect/healthy increments *)
}

type health_state = {
  hc : health_config;
  hs_agents : agent_state array;
  mutable hs_running : bool;
  hb_sent : Metrics.counter;
  hb_missed : Metrics.counter;
  hs_resync_full : Metrics.counter;
  hs_repair_ops : Metrics.counter;
  mutable hs_recovery : recovery_event list;  (** newest first *)
  hs_recovery_dropped : Metrics.counter;
      (** recovery events pushed out of the bounded ring *)
}

(* The recovery log is a ring: under sustained churn it would otherwise
   grow without bound inside a long-lived controller. *)
let recovery_log_cap = 64

type role = Acting | Standby | Deposed
(** Where this controller instance stands in the cluster. [Acting] owns
    the current fencing epoch and is the only instance that may mutate;
    a [Standby] tails the journal (rejecting direct API calls); a
    [Deposed] instance discovered a newer fence and refuses everything
    until restarted. A controller created alone is a cluster of one over
    its own journal, permanently [Acting]. *)

exception Unavailable
(** The controller cannot take this operation: it is killed, or it is a
    standby. Callers route the op to the acting instance and retry. *)

exception Deposed_primary
(** The controller was the acting primary but has been fenced off by a
    promoted standby; it will never act again. *)

(* Everything the journal's snapshot persists: the controller's intent
   (meetings/participants/relays) plus every allocator counter, so that
   replaying the journal suffix on top of a restored snapshot draws the
   same pids/ports/mids the original execution did. Client and
   connection values are shared by reference — they model live endpoints
   in the simulated world, not controller-private state. *)
type persisted = {
  meetings : (meeting_id, meeting) Hashtbl.t;
  participants : (participant_id, participant) Hashtbl.t;
  egress_ports : (int, int) Hashtbl.t;  (** client ip (or pseudo key) -> switch port *)
  relay_receivers : (meeting_id * int * int, unit) Hashtbl.t;
      (** (meeting, source switch, destination switch) pseudo receivers *)
  mutable next_agent : int;
  mutable next_meeting : int;
  mutable next_pid : int;
  mutable next_sfu_port : int;
  mutable next_egress_port : int;
  mutable next_provisional : int;  (** provisional agent meeting ids, < -1 *)
}

let fresh_state () =
  {
    meetings = Hashtbl.create 16;
    participants = Hashtbl.create 64;
    egress_ports = Hashtbl.create 64;
    relay_receivers = Hashtbl.create 16;
    next_agent = 0;
    next_meeting = 0;
    next_pid = 0;
    next_sfu_port = 40_000;
    next_egress_port = 1;
    next_provisional = -2;
  }

type t = {
  engine : Engine.t;
  rng : Rng.t;
  label : string;  (** names this instance on traces and metrics *)
  agents : (Switch_agent.t * Dataplane.t) array;
  rpcs : Rpc_transport.Client.t array;  (** one control channel per switch *)
  mutable state : persisted;
  sdp_messages : Metrics.counter;  (** registry-backed (label [ctrl="..."]) *)
  mutable health : health_state option;  (** None until {!start_health} *)
  batch : bool;  (** flush at operation boundaries; [false] flushes every op *)
  buffers : buffered_op Queue.t array;  (** per-agent batch buffer (FIFO) *)
  flushing : bool array;  (** per-agent reentrancy guard around a flush *)
  journal : persisted Journal.t;
  mutable role : role;
  mutable fence : int;  (** fencing epoch this instance acts under *)
  mutable recovering : bool;
      (** replaying the journal: execute intent mutations only — no wire
          ops, no SDP, no rng draws; client connections are adopted by
          address instead of created *)
  mutable killed : bool;  (** crashed process: mute the wire, refuse ops *)
  mutable applied : int;  (** highest journal index reflected in intent *)
}

(* The controller's address on the management network — a label on
   control datagrams; the channels themselves are point-to-point. *)
let controller_ip = Addr.ip_of_string "10.255.0.1"
let control_port = 6633

let create engine _network rng ~agents ?(control = Rpc_transport.default)
    ?(batch = true) ?(journal = Journal.create ()) ?(standby = false) ?(label = "ctl")
    ?(ip = controller_ip) () =
  if agents = [] then invalid_arg "Controller.create: need at least one switch agent";
  let agents = Array.of_list agents in
  let rpcs =
    Array.mapi
      (fun idx (agent, dp) ->
        (* the default instance keeps the historic per-switch metric
           label; extra instances prefix theirs so a standby's clients
           never displace the primary's series in the registry *)
        let rpc_label =
          if label = "ctl" then Printf.sprintf "sw%d" idx
          else Printf.sprintf "%s-sw%d" label idx
        in
        Rpc_transport.Client.connect engine (Rng.split rng) ~config:control
          ~label:rpc_label
          ~local:(Addr.v ip (control_port + idx))
          ~remote:(Addr.v (Dataplane.ip dp) control_port)
          (Switch_agent.rpc_server agent))
      agents
  in
  let t =
    {
      engine;
      rng;
      label;
      agents;
      rpcs;
      state = fresh_state ();
      sdp_messages =
        Metrics.counter ~labels:[ ("ctrl", label) ]
          ~help:"SDP messages shipped through the codec" "scallop_ctrl_sdp_messages";
      health = None;
      batch;
      buffers = Array.map (fun _ -> Queue.create ()) agents;
      flushing = Array.map (fun _ -> false) agents;
      journal;
      role = (if standby then Standby else Acting);
      fence = 0;
      recovering = false;
      killed = false;
      applied = -1;
    }
  in
  (* a fresh primary over a (possibly pre-populated) journal owns the
     next fencing epoch from the start *)
  if not standby then t.fence <- Journal.acquire_fence journal;
  t

let fresh_sfu_port t =
  let p = t.state.next_sfu_port in
  t.state.next_sfu_port <- p + 1;
  p

let egress_port_of t key =
  let st = t.state in
  match Hashtbl.find_opt st.egress_ports key with
  | Some p -> p
  | None ->
      let p = st.next_egress_port in
      st.next_egress_port <- p + 1;
      Hashtbl.replace st.egress_ports key p;
      p

(* A pseudo participant id standing for "everything behind switch [idx]"
   when it appears as a receiver of another switch's replication trees. *)
let relay_pid idx = 900_000 + idx

(* Pseudo keys into the egress-port allocator for a sender registered on a
   non-home switch, and for a relay receiver. *)
let sender_site_key pid idx = 0x7E000000 + (pid * 64) + idx
let relay_site_key mid idx = 0x7F000000 + (mid * 64) + idx

let find_meeting t mid =
  match Hashtbl.find_opt t.state.meetings mid with
  | Some m -> m
  | None -> invalid_arg "Controller: unknown meeting"

let find_participant t pid =
  match Hashtbl.find_opt t.state.participants pid with
  | Some p -> p
  | None -> invalid_arg "Controller: unknown participant"

(* [idx] checked as a switch index for entry point [fn]. *)
let switch_idx t fn idx =
  if idx < 0 || idx >= Array.length t.agents then
    invalid_arg (Printf.sprintf "Controller.%s: no switch %d" fn idx);
  idx

(* --- fencing ---------------------------------------------------------------

   Every wire op carries the instance's fencing epoch ([Rpc.Fenced]);
   agents reject anything older than the highest fence they have seen
   ([Rpc.Stale_fence]), and the journal itself rejects appends under a
   superseded fence. Either rejection deposes
   this instance: a standby has been promoted and owns a higher epoch. *)

let ctrl_arg t = ("ctrl", Trace.S t.label)

let depose t ~fence =
  if t.role <> Deposed then begin
    t.role <- Deposed;
    (* the deposed primary's heartbeats stop; the new acting instance
       runs its own detector *)
    (match t.health with Some h -> h.hs_running <- false | None -> ());
    if Trace.enabled Trace.Rpc then
      Trace.instant ~ts:(Engine.now t.engine) ~cat:"ctrl" "ctrl_deposed"
        ~args:[ ctrl_arg t; ("fence", Trace.I fence) ]
  end

(* Every public mutation starts here. A journal replay runs the same
   public functions with [recovering] set, so the checks (like the
   journal append) are skipped for it. *)
let ensure_usable t =
  if not t.recovering then begin
    if t.killed then raise Unavailable;
    match t.role with
    | Acting -> ()
    | Standby -> raise Unavailable
    | Deposed -> raise Deposed_primary
  end

(* Durably record one intent mutation before executing it. Raising here
   (stale fence) means the op was neither journaled nor executed — the
   caller retries against the acting instance. *)
let journaled t op =
  if not t.recovering then
    match Journal.append t.journal ~fence:t.fence op with
    | idx -> t.applied <- idx
    | exception Journal.Deposed { current; _ } ->
        depose t ~fence:current;
        raise Deposed_primary

let wire t req = Rpc.Fenced { fence = t.fence; op = req }

(* Check the journal for a newer fence and self-depose if one exists —
   the lease check the cluster beat timer runs on the acting primary, so
   a falsely-suspected (but alive) primary stands down within one beat
   of a standby's promotion instead of waiting to collide on the wire.
   The skip-fencing mutation disables this too: the model checker must
   be able to drive the resulting split brain to a double execution. *)
let refresh_role t =
  if
    t.role = Acting
    && (not (Mutation.on Mutation.Skip_fencing_check))
    && Journal.fence t.journal > t.fence
  then depose t ~fence:(Journal.fence t.journal)

(* Placement across cascaded switches: meetings get a round-robin primary
   switch; participants may be homed elsewhere (Appendix A), in which case
   cascade relays carry the media between switches.

   Every public mutation below has the same shape: check, journal the op
   under the current fence, execute. A journal replay calls the same
   functions ({!apply_journal_op}); no op journals another. *)
let create_meeting t =
  ensure_usable t;
  journaled t Journal.Create_meeting;
  let st = t.state in
  let primary = st.next_agent in
  st.next_agent <- (st.next_agent + 1) mod Array.length t.agents;
  let mid = st.next_meeting in
  st.next_meeting <- mid + 1;
  Hashtbl.replace st.meetings mid
    {
      mid;
      primary;
      sites = Hashtbl.create 2;
      members = [];
      leg_intents_rev = [];
      pair_targets = [];
    };
  mid

(* --- control-plane RPC ------------------------------------------------------

   Every agent operation is a typed message shipped over that switch's
   control channel. Session mutations go through one path: they append
   their wire op to the switch's batch buffer, and a flush ships the
   buffer as one fenced [Rpc.Batch] — at the end of each public
   operation, or after every op when [batch] is off. The call blocks (in
   virtual time) until the agent's reply lands. An [Error] reply
   surfaces as [Invalid_argument]. A dead channel depends on whether
   health tracking runs: with it, the agent is marked Dead and the ops
   are skipped, to be covered by the agent's next resync; without it
   (the pre-failure-detector contract), the transport error surfaces as
   [Rpc_transport.Timed_out]. *)

let health_rank = function Healthy -> 0 | Suspect -> 1 | Dead -> 2
let health_name = function Healthy -> "healthy" | Suspect -> "suspect" | Dead -> "dead"

(* A Dead switch cannot take ops, and neither can one mid-heal: the
   resync in flight is replaying controller intent, and a straddling op
   races that replay — double-executing its effect or colliding with
   half-replayed agent bookkeeping. Its wire side is skipped like an op
   for a dead switch, which leaves the switch out of sync for another
   resync. *)
let unavailable t idx =
  match t.health with
  | Some h -> h.hs_agents.(idx).ah = Dead || h.hs_agents.(idx).ah_healing
  | None -> false

let set_agent_health t h idx st =
  let a = h.hs_agents.(idx) in
  if a.ah <> st then begin
    Metrics.incr a.ah_transitions.(health_rank st);
    if Trace.enabled Trace.Rpc then
      Trace.instant ~ts:(Engine.now t.engine) ~cat:"ctrl"
        ("agent_" ^ health_name st)
        ~args:[ ctrl_arg t; ("agent", Trace.I idx) ]
  end;
  a.ah <- st;
  Metrics.set a.ah_gauge (float_of_int (health_rank st))

let mark_dead t h idx =
  let a = h.hs_agents.(idx) in
  if a.ah <> Dead then begin
    a.ah_detected_ns <- Engine.now t.engine;
    set_agent_health t h idx Dead
  end

(* Drop the wire side of [n] ops switch [idx] cannot take now. Intent
   already holds them; the switch is marked out of sync, so its next
   heal resyncs it from intent. Only reachable with health tracking on:
   without it nothing is unavailable and a dead channel raises. *)
let skip_ops t idx n =
  match t.health with
  | None -> ()
  | Some h ->
      let a = h.hs_agents.(idx) in
      a.ah_in_sync <- false;
      a.ah_skipped <- a.ah_skipped + n;
      if Trace.enabled Trace.Rpc then
        Trace.instant ~ts:(Engine.now t.engine) ~cat:"ctrl" "op_skip"
          ~args:[ ctrl_arg t; ("agent", Trace.I idx); ("n", Trace.I n) ]

let raise_timed_out req err =
  let attempts = match err with `Gave_up n -> n | `Timeout -> 0 in
  raise (Rpc_transport.Timed_out { op = Rpc.request_name req; seq = -1; attempts })

(* An [Error] reply from an agent that should know the state we installed
   means the agent answered from a fresh boot (a restart raced an in-flight
   call, so we saw the reply before any Pong carried the new epoch) or has
   otherwise drifted. With the failure detector on we don't raise: the
   agent is declared Dead — the next heartbeat answers with the bumped
   epoch and the whole switch is replayed from intent. *)
let desync t idx msg =
  match t.health with
  | Some h -> mark_dead t h idx
  | None -> invalid_arg msg

let provisional_mid t =
  let mid = t.state.next_provisional in
  t.state.next_provisional <- mid - 1;
  mid

let take_buffer t idx =
  let ops = List.of_seq (Queue.to_seq t.buffers.(idx)) in
  Queue.clear t.buffers.(idx);
  ops

let guarded t idx f =
  t.flushing.(idx) <- true;
  Fun.protect ~finally:(fun () -> t.flushing.(idx) <- false) f

(* One blocking call with failure-detector semantics: [None] means the
   transport gave up and the agent is now Dead. Flushes the agent's
   batch buffer first (a no-op for the flush's own batch, which runs
   under the guard), so a call can never overtake ops buffered before
   it. *)
let rec call_reply t idx req =
  flush_agent t idx;
  match Rpc_transport.Client.call t.rpcs.(idx) (wire t req) with
  | Ok (Rpc.Stale_fence { fence }) ->
      (* the agent has seen a higher fencing epoch: a standby was
         promoted over us — stand down instead of retrying *)
      depose t ~fence;
      raise Deposed_primary
  | Ok reply -> Some reply
  | Error err -> (
      match t.health with
      | Some h ->
          mark_dead t h idx;
          None
      | None -> raise_timed_out req err)

(* Ship [ops] to switch [idx] as one [Rpc.Batch]; [true] when every op
   was acknowledged. Agent-side meeting ids are resolved here: a
   provisional site is materialized with a synchronous New_meeting
   first. Anything short of a full acknowledgement marks the switch Dead
   and skips the ops (or raises, without a failure detector). Runs under
   the [flushing] guard: the blocking call pumps the engine, where
   another operation may buffer more ops for this switch. *)
and send_batch t idx ops =
  let failed () =
    skip_ops t idx (List.length ops);
    false
  in
  let rec resolve acc = function
    | [] -> Some (List.rev acc)
    | op :: rest -> (
        match materialize_site t (find_meeting t op.b_mid) idx with
        | Some site -> resolve (op.b_build ~agent_mid:site.agent_mid :: acc) rest
        | None -> None)
  in
  match resolve [] ops with
  | None -> failed ()
  | Some reqs -> (
      match call_reply t idx (Rpc.Batch reqs) with
      | Some (Rpc.Batch_reply replies) when List.length replies = List.length reqs -> (
          match List.find_opt (fun r -> r <> Rpc.Ack) replies with
          | None -> true
          | Some (Rpc.Error msg) ->
              desync t idx msg;
              failed ()
          | Some _ -> invalid_arg "Controller: unexpected reply in batch")
      | Some (Rpc.Error msg) ->
          desync t idx msg;
          failed ()
      | Some (Rpc.Ack | Rpc.Pong _ | Rpc.Meeting_created _ | Rpc.Batch_reply _ | Rpc.Stale_fence _)
        ->
          invalid_arg "Controller: unexpected reply to batch"
      | None -> failed ())

(* Ship everything buffered for switch [idx], FIFO, so agent-side
   execution order equals buffering order. Ops buffered by a nested
   operation while a flush is in flight go out in the next round. *)
and flush_agent t idx =
  while not (t.flushing.(idx) || Queue.is_empty t.buffers.(idx)) do
    let ops = take_buffer t idx in
    if unavailable t idx then skip_ops t idx (List.length ops)
    else ignore (guarded t idx (fun () -> send_batch t idx ops))
  done

(* Lazily bring a meeting up on a switch. While the switch is unavailable
   the site carries a provisional (negative) agent meeting id, swapped
   for a real one when a flush or a resync materializes it. A journal
   replay reconstructs intent only: its sites stay provisional, and the
   fenced resync at promotion is what materializes them on the agents. *)
and site_of t m idx =
  match Hashtbl.find_opt m.sites idx with
  | Some s -> s
  | None ->
      let _, dp = t.agents.(idx) in
      let s = { dp; agent_mid = provisional_mid t } in
      Hashtbl.replace m.sites idx s;
      if t.recovering || unavailable t idx then s
      else Option.value (materialize_site t m idx) ~default:s

(* Turn a provisional site into a real agent-side meeting; [None] when
   the switch died under us. *)
and materialize_site t m idx =
  let site = site_of t m idx in
  if site.agent_mid >= 0 then Some site
  else
    match call_reply t idx (Rpc.New_meeting { two_party = false }) with
    | Some (Rpc.Meeting_created { meeting }) ->
        let s = { site with agent_mid = meeting } in
        Hashtbl.replace m.sites idx s;
        Some s
    | Some (Rpc.Error msg) ->
        desync t idx msg;
        None
    | Some (Rpc.Ack | Rpc.Pong _ | Rpc.Batch_reply _ | Rpc.Stale_fence _) ->
        invalid_arg "Controller: missing meeting id in new-meeting reply"
    | None -> None

(* Flush every per-agent batch buffer — the operation-boundary hook:
   public session mutations buffer their wire ops and call this before
   returning, so one [join]/[leave]/share change becomes one [Rpc.Batch]
   per touched switch instead of a blocking round trip per op. *)
let flush_buffers t = Array.iteri (fun idx _ -> flush_agent t idx) t.rpcs

(* Issue one agent-state mutation on switch [idx] of meeting [m]. Intent
   (the caller's bookkeeping) is always updated by the caller regardless;
   against an unavailable switch only the wire side is skipped, so a
   leave or target change never raises and never forks controller
   state. *)
let agent_op t m idx (build : agent_mid:int -> Rpc.request) =
  (* the site is created eagerly so its New_meeting keeps its place in
     the op order; a journal replay records the site and skips the wire
     — the agents' state is the promotion resync's concern *)
  ignore (site_of t m idx);
  if not t.recovering then
    if unavailable t idx then skip_ops t idx 1
    else begin
      Queue.push { b_mid = m.mid; b_build = build } t.buffers.(idx);
      if not t.batch then flush_agent t idx
    end

(* --- SDP plumbing -----------------------------------------------------------

   Offers/answers really travel through the textual codec so the signaling
   path is exercised end to end: build -> to_string -> of_string (the
   "wire") -> candidate rewrite -> answer. *)

let ship t (sdp : Sdp.t) =
  Metrics.incr t.sdp_messages;
  Sdp.of_string (Sdp.to_string sdp)

(* [prefix] then the low [width] hex digits of [n], zero-padded: what
   [Printf.sprintf "%s%0*x"] prints for [0 <= n < 16^width] *)
let hex_token prefix ~width n =
  let plen = String.length prefix in
  let b = Bytes.create (plen + width) in
  Bytes.blit_string prefix 0 b 0 plen;
  for i = 0 to width - 1 do
    Bytes.set b (plen + width - 1 - i) "0123456789abcdef".[(n lsr (4 * i)) land 15]
  done;
  Bytes.unsafe_to_string b

let build_offer t ~ip ~port ~video_ssrc ~audio_ssrc ~sends =
  let addr = Addr.v ip port in
  let direction = if sends then Sdp.Sendonly else Sdp.Recvonly in
  {
    Sdp.session_id = Rng.int t.rng 1_000_000_000;
    origin_addr = Addr.v ip 0;
    ice_ufrag = hex_token "uf" ~width:6 (Rng.int t.rng 0xFFFFFF);
    ice_pwd = hex_token "pw" ~width:8 (Rng.int t.rng 0xFFFFFFF);
    medias =
      [
        Sdp.make_media ~direction ~extmaps:[ (Av1.Dd.extension_id, "urn:av1:dependency-descriptor") ]
          ~svc_mode:(Some "L1T3") ~kind:Sdp.Video ~mid:"0" ~payload_type:96 ~codec:"AV1"
          ~clock_rate:90000 ~ssrc:video_ssrc ~cname:"scallop" ~candidates:[ Sdp.host_candidate addr ]
          ();
        Sdp.make_media ~direction ~kind:Sdp.Audio ~mid:"1" ~payload_type:111 ~codec:"opus"
          ~clock_rate:48000 ~ssrc:audio_ssrc ~cname:"scallop"
          ~candidates:[ Sdp.host_candidate addr ] ();
      ];
  }

(* The controller's splice: the participant's offer is answered with the
   SFU's address as the only candidate (paper §5.1). *)
let splice_answer t offer ~sfu_addr =
  let intercepted = Sdp.rewrite_candidates offer sfu_addr in
  let answer =
    Sdp.answer ~offer:intercepted ~session_id:(Rng.int t.rng 1_000_000_000) ~origin:sfu_addr
      ~ice_ufrag:"sfuuf" ~ice_pwd:"sfupw" ~media_for:(fun m -> Some m)
  in
  ship t answer

(* During a journal replay the client endpoints already exist in the
   simulated world — they were created by the original execution. The
   rebuilding controller must adopt them, not create doubles. SFU ports
   strictly increase and are never reused, so the connection whose remote
   is [sfu_addr] is unambiguous. [None] means this connection was never
   created (or was closed): the replaying exec path creates it. *)
let adopt_connection t client ~sfu_addr =
  if t.recovering then
    List.find_opt (fun c -> Client.remote_addr c = sfu_addr) (Client.connections client)
  else None

(* The client-side port for a connection this exec is about to create.
   During a journal replay, failing to adopt means the original
   connection was already closed — a later entry in the history being
   replayed tears this one down again — so the ghost must not advance
   the client's real port allocator (the counter is shared, observable
   state; burning it would make a rebuilt world allocate differently
   from one that never failed over). Borrow the SFU port number
   instead: globally unique, never reused, and outside the client
   range. *)
let fresh_local_port t client ~sfu_addr =
  if t.recovering then sfu_addr.Addr.port else Client.fresh_port client

(* Run the offer/answer exchange for a new connection — skipped during a
   journal replay (no rng draws, no SDP counters: signaling happened in
   the original execution). The answer's candidate is always the spliced
   [sfu_addr], so callers use that address directly. *)
let signal_connection t ~ip ~port ~video_ssrc ~audio_ssrc ~sfu_addr =
  if not t.recovering then begin
    let offer = build_offer t ~ip ~port ~video_ssrc ~audio_ssrc ~sends:true in
    ignore (splice_answer t (ship t offer) ~sfu_addr)
  end

(* Per-stream identifiers: a participant's camera bundle and its optional
   screen-share bundle are independent streams with their own SSRCs,
   uplinks and (when cascaded) relays. *)
let stream_ssrcs (p : participant) = function
  | Camera -> (p.video_ssrc, p.audio_ssrc)
  | Screen -> (0x300000 + (p.pid * 2), 0x300001 + (p.pid * 2))

let stream_bitrate = function Camera -> 2_500_000 | Screen -> 1_500_000

let stream_ports (p : participant) = function
  | Camera -> p.cam_ports
  | Screen -> p.screen_ports

let add_stream_port (p : participant) kind site port =
  match kind with
  | Camera -> p.cam_ports <- (site, port) :: p.cam_ports
  | Screen -> p.screen_ports <- (site, port) :: p.screen_ports

(* --- wire ops: one builder per intent ----------------------------------------

   Each agent op is a function of the intent it encodes, and the forward
   path and the resync's replay ({!push_replay}) both call it, so the two
   cannot drift apart. A builder does its allocations (egress ports) when
   called; the closure it returns only fills in the agent-side meeting id
   at flush time. *)

(* Participant [p] registered on switch [idx]: at home with its own
   egress port, elsewhere as a sender feeding a relay uplink there. *)
let participant_op t (p : participant) idx =
  let egress_port, sends =
    if idx = p.home then (p.egress_port, p.sends)
    else (egress_port_of t (sender_site_key p.pid idx), true)
  in
  let participant = p.pid in
  fun ~agent_mid ->
    Rpc.Register_participant { meeting = agent_mid; participant; egress_port; sends }

(* The pseudo receiver standing for switch [dst] on a source switch. *)
let relay_receiver_op t mid dst =
  let egress_port = egress_port_of t (relay_site_key mid dst) in
  fun ~agent_mid ->
    Rpc.Register_participant
      { meeting = agent_mid; participant = relay_pid dst; egress_port; sends = false }

(* [p]'s [kind] stream entering switch [idx] on [port]: its own uplink at
   home, a cascade relay elsewhere. Only the home camera uplink carries
   simulcast renditions. *)
let uplink_op (p : participant) kind idx port =
  let video_ssrc, audio_ssrc = stream_ssrcs p kind in
  let renditions = if kind = Camera && idx = p.home then p.renditions else [||] in
  let sender = p.pid and full_bitrate = stream_bitrate kind in
  fun ~agent_mid ->
    Rpc.Register_uplink
      { meeting = agent_mid; sender; port; video_ssrc; audio_ssrc; full_bitrate; renditions }

let leg_op li ~agent_mid =
  Rpc.Register_leg
    {
      meeting = agent_mid;
      sender = li.li_sender;
      uplink_port = Some li.li_uplink_port;
      receiver = li.li_receiver;
      leg_port = li.li_leg_port;
      dst = li.li_dst;
      adaptive = li.li_adaptive;
    }

let pair_target_op ((sender, receiver), target) ~agent_mid =
  Rpc.Set_pair_target { meeting = agent_mid; sender; receiver; target }

let remove_participant_op participant ~agent_mid =
  Rpc.Remove_participant { meeting = agent_mid; participant }

(* Record [sender]'s [kind] leg on switch [idx], fed by the stream's
   uplink there, in intent, and register it on that switch. *)
let add_leg t m idx ~kind ~(sender : participant) ~receiver ~leg_port ~dst ~adaptive =
  let li =
    {
      li_idx = idx;
      li_kind = kind;
      li_sender = sender.pid;
      li_uplink_port = List.assoc idx (stream_ports sender kind);
      li_receiver = receiver;
      li_leg_port = leg_port;
      li_dst = dst;
      li_adaptive = adaptive;
    }
  in
  m.leg_intents_rev <- li :: m.leg_intents_rev;
  agent_op t m idx (leg_op li)

(* --- cascading (Appendix A) --------------------------------------------------

   A sender homed on switch A reaches receivers homed on switch B through a
   cascade relay: A treats "switch B" as one more receiver of the sender's
   streams (a non-adaptive leg, full quality), and B treats the relay as
   the sender's uplink, replicating and rate-adapting for its local
   receivers exactly as if the sender were attached directly. Feedback
   composes through the existing paths: B forwards its best receiver's
   REMB (and NACKs/PLIs) upstream, where it arrives on A's relay leg and
   flows to the real sender under A's filter. *)

let ensure_relay t m ~(sender : participant) ~kind ~to_switch =
  if not (List.mem_assoc to_switch (stream_ports sender kind)) then begin
    let dst_site = site_of t m to_switch in
    (* the downstream switch sees the sender as a sending participant whose
       uplink is the relay port (its own copies are self-suppressed, so the
       pseudo egress port never carries traffic) *)
    let relay_port = fresh_sfu_port t in
    if not (List.mem to_switch sender.sites) then begin
      agent_op t m to_switch (participant_op t sender to_switch);
      sender.sites <- to_switch :: sender.sites
    end;
    agent_op t m to_switch (uplink_op sender kind to_switch relay_port);
    add_stream_port sender kind to_switch relay_port;
    (* the upstream switch sees the downstream switch as one receiver *)
    let rkey = (m.mid, sender.home, to_switch) in
    if not (Hashtbl.mem t.state.relay_receivers rkey) then begin
      Hashtbl.replace t.state.relay_receivers rkey ();
      agent_op t m sender.home (relay_receiver_op t m.mid to_switch)
    end;
    let leg_port = fresh_sfu_port t in
    add_leg t m sender.home ~kind ~sender ~receiver:(relay_pid to_switch) ~leg_port
      ~dst:(Addr.v (Dataplane.ip dst_site.dp) relay_port) ~adaptive:false
  end

(* Wire one (sender -> receiver) leg on the receiver's home switch:
   signaling towards the receiver plus agent/data-plane registration. *)
let create_stream_leg t m ~kind ~(sender : participant) ~(receiver : participant) =
  let site = site_of t m receiver.home in
  if sender.home <> receiver.home then ensure_relay t m ~sender ~kind ~to_switch:receiver.home;
  let video_ssrc, audio_ssrc = stream_ssrcs sender kind in
  let leg_port = fresh_sfu_port t in
  let sfu_addr = Addr.v (Dataplane.ip site.dp) leg_port in
  let conn =
    match adopt_connection t receiver.client ~sfu_addr with
    | Some conn -> conn
    | None ->
        (* the sender's streams are re-offered to the receiver, with
           candidates rewritten to the leg address *)
        signal_connection t ~ip:(Client.ip sender.client) ~port:leg_port ~video_ssrc
          ~audio_ssrc ~sfu_addr;
        let local_port = fresh_local_port t receiver.client ~sfu_addr in
        let conn =
          Client.add_recv_connection receiver.client ~local_port ~remote:sfu_addr
            ~video_ssrc ~audio_ssrc
        in
        (* the controller is the only party that knows whose media this leg
           carries — attach the QoE collectors here, keyed by that identity *)
        Client.attach_qoe conn ~meeting:m.mid ~receiver:receiver.pid ~sender:sender.pid
          ~media:
            (match kind with
            | Camera -> Scallop_obs.Qoe.Camera
            | Screen -> Scallop_obs.Qoe.Screen);
        conn
  in
  (match kind with
  | Camera -> receiver.recv_conns <- (sender.pid, conn) :: receiver.recv_conns
  | Screen -> receiver.screen_recv_conns <- (sender.pid, conn) :: receiver.screen_recv_conns);
  add_leg t m receiver.home ~kind ~sender ~receiver:receiver.pid ~leg_port
    ~dst:(Client.local_addr conn) ~adaptive:true

(* Relay receivers are reference-counted implicitly by need: the pseudo
   participant standing for switch [dst] on switch [src] must exist while
   some current member homed on [src] still has a stream relayed to [dst].
   Every teardown path that can retire the last such stream calls this to
   unregister the stale pseudo participants (otherwise their egress legs
   and tree slots leak on the source switch). *)
let gc_relays t m =
  let st = t.state in
  let needed src dst =
    List.exists
      (fun pid ->
        match Hashtbl.find_opt st.participants pid with
        | None -> false
        | Some p ->
            p.home = src
            && (List.mem_assoc dst p.cam_ports || List.mem_assoc dst p.screen_ports))
      m.members
  in
  let stale =
    Hashtbl.fold
      (fun (mid, src, dst) () acc ->
        if mid = m.mid && not (needed src dst) then (src, dst) :: acc else acc)
      st.relay_receivers []
  in
  List.iter
    (fun (src, dst) ->
      Hashtbl.remove st.relay_receivers (m.mid, src, dst);
      let rpid = relay_pid dst in
      m.leg_intents_rev <-
        List.filter
          (fun l -> not (l.li_idx = src && l.li_receiver = rpid))
          m.leg_intents_rev;
      agent_op t m src (remove_participant_op rpid))
    stale

let join ?home ?(simulcast = false) t mid client ~send_media =
  ensure_usable t;
  let m = find_meeting t mid in
  (* the switch the participant attaches to *)
  let sw =
    match home with
    | None -> m.primary
    | Some h -> switch_idx t "join" h
  in
  journaled t (Journal.Join { mid; home; simulcast; client; send_media });
  let site = site_of t m sw in
  let pid = t.state.next_pid in
  t.state.next_pid <- pid + 1;
  let ip = Client.ip client in
  let egress_port = egress_port_of t ip in
  (* stride 8 leaves room for a simulcast sender's rendition SSRCs
     (base, base+2, base+4) next to its audio (base+1) *)
  let video_ssrc = 0x200000 + (pid * 8) in
  let audio_ssrc = video_ssrc + 1 in
  let renditions =
    if send_media && simulcast then
      let cfg = Codec.Simulcast_source.default_config ~base_ssrc:video_ssrc in
      Array.mapi
        (fun i bitrate -> (video_ssrc + (2 * i), bitrate))
        cfg.Codec.Simulcast_source.bitrates
    else [||]
  in
  let p =
    {
      pid;
      meeting = mid;
      client;
      home = sw;
      egress_port;
      sends = send_media;
      video_ssrc;
      audio_ssrc;
      renditions;
      send_conn = None;
      recv_conns = [];
      sites = [ sw ];
      cam_ports = [];
      screen_ports = [];
      screen = None;
      screen_recv_conns = [];
    }
  in
  agent_op t m sw (participant_op t p sw);
  if send_media then begin
    let uplink_port = fresh_sfu_port t in
    add_stream_port p Camera sw uplink_port;
    agent_op t m sw (uplink_op p Camera sw uplink_port);
    let sfu_addr = Addr.v (Dataplane.ip site.dp) uplink_port in
    p.send_conn <-
      (match adopt_connection t client ~sfu_addr with
      | Some conn -> Some conn
      | None ->
          (* the participant's own offer, spliced to the uplink *)
          let local_port = fresh_local_port t client ~sfu_addr in
          signal_connection t ~ip ~port:local_port ~video_ssrc ~audio_ssrc ~sfu_addr;
          Some
            (if simulcast then
               Client.add_simulcast_send_connection client ~local_port ~remote:sfu_addr
                 ~base_ssrc:video_ssrc ~audio_ssrc
             else
               Client.add_send_connection client ~local_port ~remote:sfu_addr ~video_ssrc
                 ~audio_ssrc))
  end;
  Hashtbl.replace t.state.participants pid p;
  (* legs with all existing members, possibly across switches — including
     any screen share already in progress, which a late joiner must
     receive just like camera media *)
  List.iter
    (fun other_pid ->
      let other = find_participant t other_pid in
      if other.sends then create_stream_leg t m ~kind:Camera ~sender:other ~receiver:p;
      if other.screen <> None then
        create_stream_leg t m ~kind:Screen ~sender:other ~receiver:p;
      if send_media then create_stream_leg t m ~kind:Camera ~sender:p ~receiver:other)
    m.members;
  m.members <- m.members @ [ pid ];
  flush_buffers t;
  pid

(* --- screen sharing: the controller's third trigger ("a participant
   starts or stops sharing a particular media type", §4) ----------------- *)

let start_screen_share t pid =
  ensure_usable t;
  let p = find_participant t pid in
  if p.screen <> None then invalid_arg "Controller.start_screen_share: already sharing";
  journaled t (Journal.Start_screen { pid });
  let m = find_meeting t p.meeting in
  let site = site_of t m p.home in
  let video_ssrc, audio_ssrc = stream_ssrcs p Screen in
  let uplink_port = fresh_sfu_port t in
  agent_op t m p.home (uplink_op p Screen p.home uplink_port);
  add_stream_port p Screen p.home uplink_port;
  let sfu_addr = Addr.v (Dataplane.ip site.dp) uplink_port in
  let conn =
    match adopt_connection t p.client ~sfu_addr with
    | Some conn -> conn
    | None ->
        (* the sharer's own offer for the new media section, spliced as usual *)
        let local_port = fresh_local_port t p.client ~sfu_addr in
        signal_connection t ~ip:(Client.ip p.client) ~port:local_port ~video_ssrc
          ~audio_ssrc ~sfu_addr;
        Client.add_send_connection ~send_audio:false
          ~video_bitrate:(stream_bitrate Screen) p.client ~local_port ~remote:sfu_addr
          ~video_ssrc ~audio_ssrc
  in
  p.screen <- Some (video_ssrc, conn);
  List.iter
    (fun other_pid ->
      if other_pid <> pid then
        create_stream_leg t m ~kind:Screen ~sender:p
          ~receiver:(find_participant t other_pid))
    m.members;
  flush_buffers t

(* Close the connections on which the members of [m] receive [from]'s
   [kind] stream. *)
let close_recv_conns t m ~from kind =
  List.iter
    (fun pid ->
      let other = find_participant t pid in
      let mine, rest =
        List.partition
          (fun (sender, _) -> sender = from)
          (match kind with Camera -> other.recv_conns | Screen -> other.screen_recv_conns)
      in
      (match kind with
      | Camera -> other.recv_conns <- rest
      | Screen -> other.screen_recv_conns <- rest);
      List.iter (fun (_, c) -> Client.close_connection other.client c) mine)
    m.members

(* Tear [p]'s screen share (sent on [conn]) down on every switch it was
   relayed to — for a stop, and as part of a leave, which journals no
   stop of its own. *)
let end_screen_share t (p : participant) conn =
  let m = find_meeting t p.meeting in
  List.iter
    (fun (idx, port) ->
      agent_op t m idx (fun ~agent_mid -> Rpc.Unregister_uplink { meeting = agent_mid; port }))
    p.screen_ports;
  p.screen_ports <- [];
  m.leg_intents_rev <-
    List.filter (fun l -> not (l.li_sender = p.pid && l.li_kind = Screen)) m.leg_intents_rev;
  Client.close_connection p.client conn;
  p.screen <- None;
  close_recv_conns t m ~from:p.pid Screen;
  gc_relays t m;
  flush_buffers t

let stop_screen_share t pid =
  ensure_usable t;
  let p = find_participant t pid in
  match p.screen with
  | None -> ()
  | Some (_, conn) ->
      journaled t (Journal.Stop_screen { pid });
      end_screen_share t p conn

let screen_connection t pid ~from = List.assoc_opt from (find_participant t pid).screen_recv_conns

let leave t pid =
  ensure_usable t;
  match Hashtbl.find_opt t.state.participants pid with
  | None -> ()
  | Some p ->
      journaled t (Journal.Leave { pid });
      Option.iter (fun (_, conn) -> end_screen_share t p conn) p.screen;
      let m = find_meeting t p.meeting in
      m.members <- List.filter (fun x -> x <> pid) m.members;
      m.leg_intents_rev <-
        List.filter (fun l -> l.li_sender <> pid && l.li_receiver <> pid) m.leg_intents_rev;
      m.pair_targets <-
        List.filter (fun ((s, r), _) -> s <> pid && r <> pid) m.pair_targets;
      (* retire the participant everywhere it is registered — its home plus
         any switch it was relayed onto as a sender *)
      List.iter
        (fun idx -> agent_op t m idx (remove_participant_op pid))
        (List.sort_uniq compare p.sites);
      gc_relays t m;
      Option.iter (fun c -> Client.close_connection p.client c) p.send_conn;
      List.iter (fun (_, c) -> Client.close_connection p.client c) p.recv_conns;
      close_recv_conns t m ~from:pid Camera;
      Hashtbl.remove t.state.participants pid;
      flush_buffers t

type sender_info = { egress_port : int; video_ssrc : int; audio_ssrc : int }

let participant_sender_info t pid =
  let p = find_participant t pid in
  if p.sends then
    Some { egress_port = p.egress_port; video_ssrc = p.video_ssrc; audio_ssrc = p.audio_ssrc }
  else None

let set_pair_target t ~sender ~receiver target =
  ensure_usable t;
  let s = find_participant t sender in
  let r = find_participant t receiver in
  if s.meeting <> r.meeting then
    invalid_arg "Controller.set_pair_target: participants in different meetings";
  journaled t (Journal.Set_pair_target { sender; receiver; target });
  let m = find_meeting t s.meeting in
  m.pair_targets <-
    ((sender, receiver), target) :: List.remove_assoc (sender, receiver) m.pair_targets;
  agent_op t m r.home (pair_target_op ((sender, receiver), target));
  flush_buffers t

let recv_connection t pid ~from = List.assoc_opt from (find_participant t pid).recv_conns

let send_connection t pid = (find_participant t pid).send_conn

let primary_site t mid =
  let m = find_meeting t mid in
  site_of t m m.primary

let agent_meeting_id t mid = (primary_site t mid).agent_mid

let control_channel t idx = t.rpcs.(switch_idx t "control_channel" idx)

let meeting_participants t mid = (find_meeting t mid).members

let meeting_switch t mid = (primary_site t mid).dp

let switch_count t = Array.length t.agents
let participant_home t pid = (find_participant t pid).home

let switch_agent t idx = t.agents.(switch_idx t "switch_agent" idx)

(* --- failure recovery --------------------------------------------------------

   One repair brings a switch back in line with controller intent: the
   {b resync}. It [Reset]s the agent, marks the switch's sites
   provisional, and replays every meeting that has a site there through
   the batch path — participants (members first, relay pseudo
   receivers after), uplinks (camera then screen per member), legs in
   creation order, pair targets. The flush materializes the sites with a
   New_meeting each and ships the ops as one [Rpc.Batch]. Because it
   starts from a wipe it converges from {e any} agent state: a
   post-reboot blank slate, a switch that missed ops while unreachable,
   or a drift the verifier found.

   The resync runs inside blocking RPCs that pump the engine, so probe
   results for the switch being repaired are suppressed ([ah_healing])
   and ops aimed at it are skipped until it commits or fails. *)

(* Push the replay of meeting [m] onto switch [idx] into its batch
   buffer, through the same op builders the forward path uses. *)
let push_replay t idx m =
  let push build = Queue.push { b_mid = m.mid; b_build = build } t.buffers.(idx) in
  let members = List.map (find_participant t) m.members in
  (* participants registered on this switch, in join order; a sender on
     a non-home switch is there to feed a relay uplink *)
  List.iter
    (fun (p : participant) -> if List.mem idx p.sites then push (participant_op t p idx))
    members;
  (* relay pseudo receivers this switch fans out to, by destination *)
  Hashtbl.fold
    (fun (mid, src, dst) () acc -> if mid = m.mid && src = idx then dst :: acc else acc)
    t.state.relay_receivers []
  |> List.sort compare
  |> List.iter (fun dst -> push (relay_receiver_op t m.mid dst));
  (* uplinks: camera then screen per member, in join order *)
  List.iter
    (fun p ->
      List.iter
        (fun kind ->
          Option.iter
            (fun port -> push (uplink_op p kind idx port))
            (List.assoc_opt idx (stream_ports p kind)))
        [ Camera; Screen ])
    members;
  (* legs in creation order *)
  List.iter (fun li -> if li.li_idx = idx then push (leg_op li)) (List.rev m.leg_intents_rev);
  (* forced pair targets whose receiver leg lives here *)
  List.sort compare m.pair_targets
  |> List.iter (fun (((_, receiver), _) as pt) ->
         match Hashtbl.find_opt t.state.participants receiver with
         | Some r when r.home = idx -> push (pair_target_op pt)
         | Some _ | None -> ())

(* Resync switch [idx] from intent; [Some rpcs] once the whole replay was
   acknowledged. [None] means the switch died (it is Dead and out of
   sync) or rebooted under the replay (a pong carried a newer epoch) —
   either way its next heal starts over. The switch counts as in sync
   afterwards only if no op aimed at it was skipped while the replay
   ran. *)
let resync t idx =
  let t0 = Engine.now t.engine in
  let replay () =
    match call_reply t idx Rpc.Reset with
    | Some Rpc.Ack ->
        let sites =
          Hashtbl.fold (fun _ m acc -> if Hashtbl.mem m.sites idx then m :: acc else acc)
            t.state.meetings []
          |> List.sort (fun a b -> compare a.mid b.mid)
        in
        List.iter
          (fun m ->
            let s = Hashtbl.find m.sites idx in
            Hashtbl.replace m.sites idx { s with agent_mid = provisional_mid t };
            push_replay t idx m)
          sites;
        let ops = take_buffer t idx in
        if
          (ops = [] || guarded t idx (fun () -> send_batch t idx ops))
          (* a site with nothing left on it still exists on the agent *)
          && List.for_all (fun m -> materialize_site t m idx <> None) sites
        then Some (1 + List.length sites + if ops = [] then 0 else 1)
        else None
    | Some (Rpc.Error msg) ->
        desync t idx ("Controller.resync: " ^ msg);
        None
    | Some (Rpc.Meeting_created _ | Rpc.Pong _ | Rpc.Batch_reply _ | Rpc.Stale_fence _) ->
        invalid_arg "Controller.resync: unexpected reply to reset"
    | None -> None
  in
  let replayed =
    match t.health with
    | None -> replay ()
    | Some h -> (
        let a = h.hs_agents.(idx) in
        let epoch0 = a.ah_observed and skipped0 = a.ah_skipped in
        a.ah_healing <- true;
        a.ah_in_sync <- false;
        match Fun.protect ~finally:(fun () -> a.ah_healing <- false) replay with
        | Some rpcs when a.ah_observed = epoch0 ->
            a.ah_skipped <- a.ah_skipped - skipped0;
            a.ah_in_sync <- a.ah_skipped = 0;
            Metrics.incr h.hs_resync_full;
            Metrics.add h.hs_repair_ops rpcs;
            Some rpcs
        | Some _ | None -> None)
  in
  (match replayed with
  | Some rpcs when Trace.enabled Trace.Rpc ->
      Trace.complete ~ts:t0 ~dur:(Engine.now t.engine - t0) ~cat:"ctrl" "resync"
        ~args:[ ctrl_arg t; ("agent", Trace.I idx); ("ops", Trace.I rpcs) ]
  | Some _ | None -> ());
  replayed

let record_recovery t h idx ~ops =
  let a = h.hs_agents.(idx) in
  h.hs_recovery <-
    {
      re_agent = idx;
      re_detected_ns = a.ah_detected_ns;
      re_recovered_ns = Engine.now t.engine;
      re_ops = ops;
    }
    :: h.hs_recovery;
  if List.length h.hs_recovery > recovery_log_cap then begin
    h.hs_recovery <- List.filteri (fun i _ -> i < recovery_log_cap) h.hs_recovery;
    Metrics.incr h.hs_recovery_dropped
  end;
  if Trace.enabled Trace.Rpc then
    Trace.instant ~ts:(Engine.now t.engine) ~cat:"ctrl" "heal_done"
      ~args:[ ctrl_arg t; ("agent", Trace.I idx); ("ops", Trace.I ops) ]

let on_pong t h idx ~epoch =
  let a = h.hs_agents.(idx) in
  (* maintained even while a heal suppresses the rest of pong handling:
     an in-flight resync checks this to detect a reboot under its feet *)
  a.ah_observed <- epoch;
  if not a.ah_healing then begin
    a.ah_missed <- 0;
    let rebooted = a.ah_epoch >= 0 && epoch <> a.ah_epoch in
    (* declared Dead before any pong was seen: nothing vouches for its state *)
    let unknown = a.ah_epoch < 0 && a.ah = Dead in
    if a.ah_in_sync && not (rebooted || unknown) then begin
      (* steady state, or back at the same epoch having missed nothing:
         its data-plane state is intact *)
      a.ah_epoch <- epoch;
      set_agent_health t h idx Healthy
    end
    else if
      (Rpc_transport.Client.in_flight t.rpcs.(idx) > 0
      && not (Mutation.on Mutation.Heal_without_quiesce))
      || not (Queue.is_empty t.buffers.(idx))
    then
      (* A heal must not overlap a blocking call on this channel (this
         pong arrived inside that call's engine pump): a resync would
         replay the op's intent, and then the in-flight request's
         retransmit would land on the healed agent and double-execute —
         the replay cache can't help, the straddling request never
         executed before the reboot wiped the cache. Nor may it cut in
         front of ops an operation has buffered and not yet flushed.
         Leave the agent as-is; the stale call settles within its
         retry ladder (a blank agent answers [Error]) and a later
         heartbeat heals the then-quiet channel. Probes do not count as
         in flight, so they cannot postpone a heal. *)
      ()
    else begin
      if a.ah <> Dead then a.ah_detected_ns <- Engine.now t.engine;
      if Trace.enabled Trace.Rpc then
        Trace.instant ~ts:(Engine.now t.engine) ~cat:"ctrl" "heal_begin"
          ~args:
            [
              ctrl_arg t;
              ("agent", Trace.I idx);
              ("rebooted", Trace.S (if rebooted then "true" else "false"));
              (* the quiet-channel rule: this must always be 0 *)
              ("in_flight", Trace.I (Rpc_transport.Client.in_flight t.rpcs.(idx)));
            ];
      match resync t idx with
      | Some ops ->
          a.ah_epoch <- epoch;
          set_agent_health t h idx Healthy;
          (* ops skipped while the replay ran are missing from it: the
             next quiet pong resyncs again, and only that one is done *)
          if a.ah_in_sync then record_recovery t h idx ~ops
      | None -> ()
    end
  end

let on_miss t h idx =
  let a = h.hs_agents.(idx) in
  if not a.ah_healing then begin
    a.ah_missed <- a.ah_missed + 1;
    Metrics.incr h.hb_missed;
    if a.ah_missed >= h.hc.dead_after then mark_dead t h idx
    else if a.ah_missed >= h.hc.suspect_after && a.ah = Healthy then
      set_agent_health t h idx Suspect
  end

let heartbeat_tick t h =
  if Trace.enabled Trace.Rpc then
    Trace.instant ~ts:(Engine.now t.engine) ~cat:"ctrl" "hb_tick"
      ~args:[ ctrl_arg t; ("interval", Trace.I h.hc.heartbeat_every_ns) ];
  Array.iteri
    (fun idx _ ->
      Metrics.incr h.hb_sent;
      Rpc_transport.Client.probe t.rpcs.(idx) ~timeout_ns:h.hc.probe_timeout_ns Rpc.Ping
        ~on_result:(fun result ->
          if h.hs_running then
            match result with
            | Ok (Rpc.Pong { epoch }) ->
                if Trace.enabled Trace.Rpc then
                  Trace.instant ~ts:(Engine.now t.engine) ~cat:"ctrl" "hb_pong"
                    ~args:
                      [ ctrl_arg t; ("agent", Trace.I idx); ("epoch", Trace.I epoch) ];
                on_pong t h idx ~epoch
            | Ok (Rpc.Ack | Rpc.Error _ | Rpc.Meeting_created _ | Rpc.Batch_reply _
                 | Rpc.Stale_fence _) ->
                on_miss t h idx
            | Error (`Timeout | `Gave_up _) -> on_miss t h idx))
    h.hs_agents

let arm_heartbeats t h =
  if Trace.enabled Trace.Rpc then
    Trace.instant ~ts:(Engine.now t.engine) ~cat:"ctrl" "hb_start"
      ~args:[ ctrl_arg t; ("interval", Trace.I h.hc.heartbeat_every_ns) ];
  Engine.every t.engine ~interval:h.hc.heartbeat_every_ns (fun () ->
      if h.hs_running then heartbeat_tick t h;
      h.hs_running)

let start_health ?(config = default_health_config) t =
  match t.health with
  | Some h -> if not h.hs_running then begin h.hs_running <- true; arm_heartbeats t h end
  | None ->
      let hs_agents =
        Array.init (Array.length t.agents) (fun idx ->
            {
              ah = Healthy;
              ah_epoch = -1;
              ah_missed = 0;
              ah_detected_ns = 0;
              ah_healing = false;
              ah_observed = -1;
              ah_in_sync = true;
              ah_skipped = 0;
              ah_gauge =
                Metrics.gauge
                  ~labels:[ ("agent", Printf.sprintf "sw%d" idx) ]
                  ~help:"Failure-detector state (0 healthy, 1 suspect, 2 dead)"
                  "scallop_ctrl_agent_state";
              ah_transitions =
                [| Healthy; Suspect; Dead |]
                |> Array.map (fun st ->
                       Metrics.counter
                         ~labels:[ ("agent", Printf.sprintf "sw%d" idx); ("to", health_name st) ]
                         ~help:"Failure-detector state transitions"
                         "scallop_ctrl_health_transitions");
            })
      in
      let h =
        {
          hc = config;
          hs_agents;
          hs_running = true;
          hb_sent =
            Metrics.counter ~help:"Heartbeat probes sent" "scallop_ctrl_heartbeat_sent";
          hb_missed =
            Metrics.counter ~help:"Heartbeat probes that timed out"
              "scallop_ctrl_heartbeat_missed";
          hs_resync_full =
            Metrics.counter ~help:"Full intent replays onto a switch"
              "scallop_ctrl_resync_full";
          hs_repair_ops =
            Metrics.counter ~help:"RPCs issued by resyncs"
              "scallop_ctrl_resync_repair_ops";
          hs_recovery = [];
          hs_recovery_dropped =
            Metrics.counter ~help:"Recovery events evicted from the bounded log"
              "scallop_ctrl_recovery_log_dropped";
        }
      in
      t.health <- Some h;
      arm_heartbeats t h

let stop_health t =
  match t.health with
  | Some h ->
      if h.hs_running && Trace.enabled Trace.Rpc then
        Trace.instant ~ts:(Engine.now t.engine) ~cat:"ctrl" "hb_stop"
          ~args:[ ctrl_arg t ];
      h.hs_running <- false
  | None -> ()

let agent_health t idx =
  let idx = switch_idx t "agent_health" idx in
  match t.health with Some h -> h.hs_agents.(idx).ah | None -> Healthy

let recovery_log t = match t.health with Some h -> h.hs_recovery | None -> []

let recovery_log_dropped t =
  match t.health with Some h -> Metrics.value h.hs_recovery_dropped | None -> 0

let health_transitions t idx st =
  let idx = switch_idx t "health_transitions" idx in
  match t.health with
  | Some h -> Metrics.value h.hs_agents.(idx).ah_transitions.(health_rank st)
  | None -> 0

(* Anti-entropy entry point: replay intent onto one switch regardless of
   its health state (the verifier calls this for a live-but-drifted
   switch). [None] if the switch went Dead during the replay. *)
let resync_switch t idx = resync t (switch_idx t "resync_switch" idx)

(* --- introspection: the controller's intent, for Scallop_analysis -------- *)

type participant_view = {
  pv_pid : participant_id;
  pv_meeting : meeting_id;
  pv_home : int;
  pv_sends : bool;
  pv_video_ssrc : int;
  pv_audio_ssrc : int;
  pv_screen_ssrc : int option;
  pv_sites : (int * int) list;
  pv_cam_ports : (int * int) list;
  pv_screen_ports : (int * int) list;
}

type relay_view = {
  rv_meeting : meeting_id;
  rv_src : int;
  rv_dst : int;
  rv_pid : participant_id;
  rv_egress_port : int;
}

type meeting_view = {
  cmv_mid : meeting_id;
  cmv_primary : int;
  cmv_members : participant_id list;
  cmv_sites : (int * int) list;
}

type health_view = {
  hv_agent : int;
  hv_state : agent_health;
  hv_epoch : int;
  hv_skipped : int;  (** ops skipped since the last complete resync *)
}

type intent = {
  in_participants : participant_view list;
  in_meetings : meeting_view list;
  in_relays : relay_view list;
  in_health : health_view list;  (** [] until {!start_health} *)
}

let introspect t =
  let port_on (p : participant) idx =
    if idx = p.home then p.egress_port
    else
      Option.value ~default:(-1)
        (Hashtbl.find_opt t.state.egress_ports (sender_site_key p.pid idx))
  in
  let participants =
    Hashtbl.fold
      (fun _ (p : participant) acc ->
        {
          pv_pid = p.pid;
          pv_meeting = p.meeting;
          pv_home = p.home;
          pv_sends = p.sends;
          pv_video_ssrc = p.video_ssrc;
          pv_audio_ssrc = p.audio_ssrc;
          pv_screen_ssrc = Option.map fst p.screen;
          pv_sites =
            List.map (fun idx -> (idx, port_on p idx)) (List.sort_uniq compare p.sites);
          pv_cam_ports = List.sort compare p.cam_ports;
          pv_screen_ports = List.sort compare p.screen_ports;
        }
        :: acc)
      t.state.participants []
    |> List.sort (fun a b -> compare a.pv_pid b.pv_pid)
  in
  let meetings =
    Hashtbl.fold
      (fun _ m acc ->
        {
          cmv_mid = m.mid;
          cmv_primary = m.primary;
          cmv_members = m.members;
          cmv_sites =
            Hashtbl.fold (fun idx s acc -> (idx, s.agent_mid) :: acc) m.sites []
            |> List.sort compare;
        }
        :: acc)
      t.state.meetings []
    |> List.sort (fun a b -> compare a.cmv_mid b.cmv_mid)
  in
  let relays =
    Hashtbl.fold
      (fun (mid, src, dst) () acc ->
        {
          rv_meeting = mid;
          rv_src = src;
          rv_dst = dst;
          rv_pid = relay_pid dst;
          rv_egress_port =
            Option.value ~default:(-1)
              (Hashtbl.find_opt t.state.egress_ports (relay_site_key mid dst));
        }
        :: acc)
      t.state.relay_receivers []
    |> List.sort compare
  in
  let health =
    match t.health with
    | None -> []
    | Some h ->
        Array.to_list
          (Array.mapi
             (fun hv_agent a ->
               { hv_agent; hv_state = a.ah; hv_epoch = a.ah_epoch; hv_skipped = a.ah_skipped })
             h.hs_agents)
  in
  {
    in_participants = participants;
    in_meetings = meetings;
    in_relays = relays;
    in_health = health;
  }

(* --- controller fault tolerance ---------------------------------------------

   The journal (write-ahead intent log) makes controller state
   reconstructible: every public mutation is appended under the current
   fence before it executes, and periodic snapshots bound replay length.
   [capture]/[restore] copy [t.state] into and out of those snapshots;
   [apply_tail] replays the journal suffix through the same public
   operations the original execution ran, with [t.recovering] set so no
   checks, journal appends, wire ops, SDP exchanges or rng draws happen —
   intent reconstruction is purely deterministic. *)

(* Hashtbls and records with mutable fields are deep-copied; clients,
   connections and immutable records (sites, leg intents) are shared. *)
let copy_participant (p : participant) = { p with pid = p.pid }
let copy_meeting (m : meeting) = { m with sites = Hashtbl.copy m.sites }

(* A copy of [src] with its bucket layout, hence its iteration order
   (which orders [gc_relays]' wire ops), each binding passed through
   [copy]. *)
let copy_table copy src =
  let dst = Hashtbl.copy src in
  Hashtbl.filter_map_inplace (fun _ v -> Some (copy v)) dst;
  dst

let copy_state (st : persisted) =
  {
    st with
    meetings = copy_table copy_meeting st.meetings;
    participants = copy_table copy_participant st.participants;
    egress_ports = Hashtbl.copy st.egress_ports;
    relay_receivers = Hashtbl.copy st.relay_receivers;
  }

let capture t = copy_state t.state

(* Copy-on-restore as well: two controllers restoring the same snapshot
   (or one restoring it twice) must never alias its tables. *)
let restore t (ps : persisted) = t.state <- copy_state ps

(* The canonical rendering of controller intent, for equality checks
   across instances. Excludes anything legitimately instance-local:
   agent-side meeting ids (a rebuilt instance holds provisional ones
   until its promotion resync) and failure-detector state. *)
let intent_fingerprint t =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let pair_list ps =
    String.concat "," (List.map (fun (a, b) -> Printf.sprintf "%d:%d" a b) ps)
  in
  let i = introspect t in
  List.iter
    (fun pv ->
      add "p %d m=%d h=%d s=%b v=%d a=%d scr=%s sites=%s cam=%s sp=%s\n" pv.pv_pid
        pv.pv_meeting pv.pv_home pv.pv_sends pv.pv_video_ssrc pv.pv_audio_ssrc
        (match pv.pv_screen_ssrc with None -> "-" | Some s -> string_of_int s)
        (pair_list pv.pv_sites) (pair_list pv.pv_cam_ports)
        (pair_list pv.pv_screen_ports))
    i.in_participants;
  List.iter
    (fun mv ->
      add "m %d pri=%d members=%s sites=%s\n" mv.cmv_mid mv.cmv_primary
        (String.concat "," (List.map string_of_int mv.cmv_members))
        (* site presence only — the agent-side ids differ by design *)
        (String.concat "," (List.map (fun (idx, _) -> string_of_int idx) mv.cmv_sites)))
    i.in_meetings;
  List.iter
    (fun rv ->
      add "r m=%d %d->%d port=%d\n" rv.rv_meeting rv.rv_src rv.rv_dst rv.rv_egress_port)
    i.in_relays;
  Hashtbl.fold (fun _ m acc -> m :: acc) t.state.meetings []
  |> List.sort (fun a b -> compare a.mid b.mid)
  |> List.iter (fun m ->
         List.iter
           (fun li ->
             add "leg m=%d sw=%d k=%s s=%d up=%d r=%d lp=%d dst=%s ad=%b\n" m.mid
               li.li_idx
               (match li.li_kind with Camera -> "cam" | Screen -> "scr")
               li.li_sender li.li_uplink_port li.li_receiver li.li_leg_port
               (Addr.to_string li.li_dst) li.li_adaptive)
           (List.rev m.leg_intents_rev);
         List.sort compare m.pair_targets
         |> List.iter (fun ((s, r), target) ->
                add "pt m=%d %d->%d t=%d\n" m.mid s r (Av1.Dd.index_of_target target)));
  Buffer.contents buf

(* A replayed entry runs the public operation it records; [recovering]
   makes it skip the checks and the journal append. *)
let apply_journal_op t (op : Journal.op) =
  match op with
  | Journal.Create_meeting -> ignore (create_meeting t)
  | Journal.Join { mid; home; simulcast; client; send_media } ->
      ignore (join ?home ~simulcast t mid client ~send_media)
  | Journal.Leave { pid } -> leave t pid
  | Journal.Start_screen { pid } -> start_screen_share t pid
  | Journal.Stop_screen { pid } -> stop_screen_share t pid
  | Journal.Set_pair_target { sender; receiver; target } ->
      set_pair_target t ~sender ~receiver target

(* Catch up with the journal: jump to its snapshot if that is ahead of
   us, then replay the entries past our high-water mark. Returns the
   number of entries applied. This is both the standby's tailing step
   and the restarted controller's crash rebuild. *)
let apply_tail t =
  (match Journal.snapshot t.journal with
  | Some (ps, index) when index > t.applied ->
      restore t ps;
      t.applied <- index
  | Some _ | None -> ());
  let entries = Journal.entries_after t.journal t.applied in
  if entries <> [] then begin
    let was = t.recovering in
    t.recovering <- true;
    Fun.protect
      ~finally:(fun () -> t.recovering <- was)
      (fun () ->
        List.iter
          (fun (e : Journal.entry) ->
            apply_journal_op t e.Journal.e_op;
            t.applied <- e.Journal.e_index)
          entries)
  end;
  List.length entries

let alive t = not t.killed

(* Crash the controller process: its wire goes silent (including
   retransmits of in-flight requests — they settle by timeout on the
   agents' side of nothing), its failure detector stops, and every public
   entry point raises [Unavailable]. An op that already passed its
   journal append completes its local bookkeeping harmlessly — the
   journal has it, so the standby's rebuild executes it for real. *)
let kill t =
  if not t.killed then begin
    t.killed <- true;
    (* the process dying takes its heartbeats with it: emit the stop so
       liveness rules don't hold a dead detector to its tick schedule *)
    stop_health t;
    Array.iter (fun c -> Rpc_transport.Client.set_muted c true) t.rpcs;
    if Trace.enabled Trace.Rpc then
      Trace.instant ~ts:(Engine.now t.engine) ~cat:"ctrl" "ctrl_kill"
        ~args:[ ctrl_arg t ]
  end

(* Restart after a crash: memory is gone, so intent is rebuilt from the
   journal alone (snapshot + suffix replay). The instance comes back as
   a standby — it must win a {!promote} before acting again, which is
   also what re-fences the agents and re-materializes their state. *)
let restart t =
  if t.killed then begin
    t.killed <- false;
    Array.iter (fun c -> Rpc_transport.Client.set_muted c false) t.rpcs;
    t.role <- Standby;
    t.fence <- 0;
    t.state <- fresh_state ();
    t.applied <- -1;
    Array.iter Queue.clear t.buffers;
    (match t.health with
    | Some h ->
        h.hs_running <- false;
        Array.iter
          (fun a ->
            a.ah <- Healthy;
            Metrics.set a.ah_gauge 0.;
            a.ah_epoch <- -1;
            a.ah_missed <- 0;
            a.ah_healing <- false;
            a.ah_observed <- -1;
            a.ah_in_sync <- true;
            a.ah_skipped <- 0)
          h.hs_agents
    | None -> ());
    if Trace.enabled Trace.Rpc then
      Trace.instant ~ts:(Engine.now t.engine) ~cat:"ctrl" "ctrl_restart"
        ~args:[ ctrl_arg t ];
    ignore (apply_tail t)
  end

(* Take over as the acting primary: catch up with the journal, mint a
   strictly higher fencing epoch, then push a fenced full resync at every
   switch — the [Reset] installs the new fence on each agent, atomically
   invalidating any in-flight request the previous primary still has on
   the wire, and the intent replay erases whatever half-applied state it
   left. The detector starts first so a switch that is down during the
   takeover is simply marked Dead and healed by its next pong. *)
let promote t =
  if t.killed then invalid_arg "Controller.promote: controller is killed";
  ignore (apply_tail t);
  t.fence <- Journal.acquire_fence t.journal;
  t.role <- Acting;
  t.recovering <- false;
  if Trace.enabled Trace.Rpc then
    Trace.instant ~ts:(Engine.now t.engine) ~cat:"ctrl" "ctrl_activate"
      ~args:[ ctrl_arg t; ("fence", Trace.I t.fence) ];
  start_health t;
  Array.iteri (fun idx _ -> ignore (resync t idx)) t.agents

let role t = t.role
let fence t = t.fence
let label t = t.label
let journal t = Some t.journal
let journal_applied t = t.applied

(* Compact the journal behind the cluster's most caught-up follower:
   snapshot [t]'s state at its high-water mark, dropping the entries it
   covers. Callers pass the standby (after a tail step), never an acting
   instance that might be mid-operation. *)
let compact_journal t = Journal.install_snapshot t.journal ~index:t.applied (capture t)
