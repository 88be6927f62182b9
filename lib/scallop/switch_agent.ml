module Addr = Scallop_util.Addr
module Ewma = Scallop_util.Ewma
module Engine = Netsim.Engine
module Dgram = Netsim.Dgram
module Dd = Av1.Dd
module Metrics = Scallop_obs.Metrics
module Trace = Scallop_obs.Trace

type meeting_id = int

type leg_info = {
  leg_port : int;
  receiver : int;
  adaptive : bool;  (** false for cascade legs towards another switch *)
  ewma : Ewma.t;
  mutable target : Dd.decode_target;
  mutable last_target_change_ns : int;
}

type sender_stream = {
  uplink_port : int;
  sender : int;
  s_meeting : meeting_id;
  video_ssrc : int;
  audio_ssrc : int;
  full_bitrate : int;
  renditions : (int * int) array;  (** simulcast (ssrc, bitrate), best first *)
  mutable legs : leg_info list;
  mutable best_leg : int option;  (** leg_port of the selected downlink *)
}

type meeting_state = {
  mid : meeting_id;
  mutable handle : Trees.handle;
  mutable design : Trees.design;
  mutable streams : sender_stream list;
  mutable members : (int * int) list;  (** participant, egress port *)
  mutable sender_members : int list;
  mutable pair_specific : bool;  (** a pair target was explicitly set *)
}

type t = {
  engine : Engine.t;
  dp : Dataplane.t;
  rewrite : Seq_rewrite.variant;
  rewriting_enabled : bool;
  feedback_filter : bool;
  meetings : (meeting_id, meeting_state) Hashtbl.t;
  stream_by_uplink : (int, sender_stream) Hashtbl.t;
  leg_index : (int, sender_stream * leg_info) Hashtbl.t;  (** by leg_port *)
  mutable next_meeting : int;
  mutable alive : bool;
  mutable epoch : int;  (** bumped on every restart; carried in Pong *)
  mutable fence : int;
      (** highest fencing epoch observed on any {!Rpc.Fenced} request;
          requests under a lower fence answer [Stale_fence]. Lost on
          restart like all agent memory — the acting controller's fenced
          resync re-installs it. *)
  (* registry-backed (label [switch="..."]) *)
  stun_answered : Metrics.counter;
  rembs_analyzed : Metrics.counter;
  target_changes : Metrics.counter;
  migrations : Metrics.counter;
  mutable rpc_server : Rpc_transport.Server.t option;
}

(* --- migration policy ------------------------------------------------------ *)

let desired_design _t m =
  if List.length m.members < 2 then Trees.Nra
  else if List.length m.members = 2 then Trees.Two_party
  else if m.pair_specific then Trees.Ra_sr
  else begin
    let adapted =
      List.exists
        (fun s -> List.exists (fun l -> l.target <> Dd.DT_30fps) s.legs)
        m.streams
    in
    if adapted then Trees.Ra_r else Trees.Nra
  end

(* Rebuild the meeting's trees under [want] from the agent's authoritative
   membership — the paper's three migration steps: build the new trees,
   repoint the uplinks, free the old trees. *)
let rebuild t m want =
  let handle' =
    Trees.register_meeting (Dataplane.trees t.dp) want ~participants:m.members
      ~senders:m.sender_members
  in
  List.iter
    (fun s ->
      List.iter
        (fun l ->
          if l.target <> Dd.DT_30fps then
            (* [pair_specific] is sticky across membership changes, but
               pair-level targets only exist in Ra_sr trees — under any
               other design (e.g. the meeting shrank to two-party) the
               pair target degrades to a per-receiver target *)
            if m.pair_specific && want = Trees.Ra_sr then
              Trees.set_pair_target (Dataplane.trees t.dp) handle' ~sender:s.sender
                ~receiver:l.receiver l.target
            else
              Trees.set_receiver_target (Dataplane.trees t.dp) handle' ~receiver:l.receiver
                l.target)
        s.legs)
    m.streams;
  List.iter
    (fun s -> Dataplane.swap_meeting_handle t.dp ~port:s.uplink_port handle')
    m.streams;
  Trees.unregister_meeting (Dataplane.trees t.dp) m.handle;
  m.handle <- handle';
  m.design <- want;
  Metrics.incr t.migrations

let maybe_migrate t m =
  let want = desired_design t m in
  if want <> m.design then rebuild t m want

(* --- registration API --------------------------------------------------------

   These are the agent-local session operations. The controller reaches
   them through {!dispatch}, driven by the RPC server over the control
   link, whose [scallop_agent_rpc_calls] counts the request messages that
   actually arrived on the wire (duplicates included), not local function
   entries. *)

let new_meeting t ~two_party =
  ignore two_party;
  (* Meetings always start as an (empty) NRA registration; the migration
     policy moves them to Two_party once exactly two members are present,
     and onwards as adaptation state evolves. *)
  let mid = t.next_meeting in
  t.next_meeting <- mid + 1;
  let handle =
    Trees.register_meeting (Dataplane.trees t.dp) Trees.Nra ~participants:[] ~senders:[]
  in
  Hashtbl.replace t.meetings mid
    {
      mid;
      handle;
      design = Trees.Nra;
      streams = [];
      members = [];
      sender_members = [];
      pair_specific = false;
    };
  mid

let meeting t mid =
  match Hashtbl.find_opt t.meetings mid with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Switch_agent: unknown meeting %d" mid)

let meeting_design t mid = (meeting t mid).design

let register_participant t ~meeting:mid ~participant ~egress_port ~sends =
  let m = meeting t mid in
  m.members <- m.members @ [ (participant, egress_port) ];
  if sends then m.sender_members <- m.sender_members @ [ participant ];
  if Trace.enabled Trace.Rpc then
    (* [count] is this participant's multiplicity after the add; the
       exactly-once-effect rule requires it to always be 1 (a duplicate
       registration is the observable damage of a double-executed op) *)
    Trace.instant ~ts:(Engine.now t.engine) ~cat:"agent" "member_add"
      ~args:
        [
          ("agent", Trace.S (Dataplane.obs_label t.dp));
          ("meeting", Trace.I mid);
          ("participant", Trace.I participant);
          ( "count",
            Trace.I
              (List.length (List.filter (fun (p, _) -> p = participant) m.members))
          );
        ];
  let want = desired_design t m in
  if want <> m.design then rebuild t m want
  else Trees.add_participant (Dataplane.trees t.dp) m.handle (participant, egress_port) ~sends

let remove_participant t ~meeting:mid ~participant =
  let m = meeting t mid in
  m.members <- List.filter (fun (p, _) -> p <> participant) m.members;
  if Trace.enabled Trace.Rpc then
    Trace.instant ~ts:(Engine.now t.engine) ~cat:"agent" "member_del"
      ~args:
        [
          ("agent", Trace.S (Dataplane.obs_label t.dp));
          ("meeting", Trace.I mid);
          ("participant", Trace.I participant);
        ];
  m.sender_members <- List.filter (fun p -> p <> participant) m.sender_members;
  (* retire this participant's sender stream and legs *)
  let gone, kept = List.partition (fun s -> s.sender = participant) m.streams in
  m.streams <- kept;
  List.iter
    (fun s ->
      Hashtbl.remove t.stream_by_uplink s.uplink_port;
      Dataplane.unregister_uplink t.dp ~port:s.uplink_port;
      List.iter
        (fun l ->
          Hashtbl.remove t.leg_index l.leg_port;
          Dataplane.unregister_leg t.dp ~receiver:l.receiver ~video_ssrc:s.video_ssrc)
        s.legs)
    gone;
  (* drop legs other senders had towards this participant *)
  List.iter
    (fun s ->
      let mine, others = List.partition (fun l -> l.receiver = participant) s.legs in
      s.legs <- others;
      List.iter
        (fun l ->
          Hashtbl.remove t.leg_index l.leg_port;
          Dataplane.unregister_leg t.dp ~receiver:participant ~video_ssrc:s.video_ssrc;
          if s.best_leg = Some l.leg_port then s.best_leg <- None)
        mine)
    kept;
  let want = desired_design t m in
  if want <> m.design then rebuild t m want
  else Trees.remove_participant (Dataplane.trees t.dp) m.handle participant

(* Tear one stream down: its data-plane legs, feedback state, and uplink. *)
let unregister_uplink t ~meeting:mid ~port =
  let m = meeting t mid in
  let gone, kept = List.partition (fun s -> s.uplink_port = port) m.streams in
  m.streams <- kept;
  List.iter
    (fun s ->
      Hashtbl.remove t.stream_by_uplink s.uplink_port;
      Dataplane.unregister_uplink t.dp ~port:s.uplink_port;
      List.iter
        (fun l ->
          Hashtbl.remove t.leg_index l.leg_port;
          Dataplane.unregister_leg t.dp ~receiver:l.receiver ~video_ssrc:s.video_ssrc)
        s.legs)
    gone

(* [renditions] declares a simulcast uplink: (ssrc, bitrate) pairs, best
   first. Its legs are spliced between renditions instead of SVC
   layer-dropping. *)
let register_uplink ?(renditions = [||]) t ~meeting:mid ~sender ~port ~video_ssrc
    ~audio_ssrc ~full_bitrate =
  let m = meeting t mid in
  let stream =
    {
      uplink_port = port;
      sender;
      s_meeting = mid;
      video_ssrc;
      audio_ssrc;
      full_bitrate;
      renditions;
      legs = [];
      best_leg = None;
    }
  in
  m.streams <- m.streams @ [ stream ];
  Hashtbl.replace t.stream_by_uplink port stream;
  Dataplane.register_uplink t.dp ~port ~sender ~meeting:m.handle ~video_ssrc ~audio_ssrc
    ~renditions:(Array.map fst renditions)

(* [uplink_port] picks among a sender's streams (camera vs screen share).
   [adaptive:false] marks a cascade leg towards a downstream switch
   (Appendix A): its REMB still feeds the best-downlink filter, but the
   leg always carries full quality, because the downstream switch adapts
   per receiver itself. *)
let register_leg t ~meeting:mid ~sender ?uplink_port ~receiver ~leg_port ~dst
    ?(adaptive = true) () =
  let m = meeting t mid in
  let wanted s =
    s.sender = sender
    && match uplink_port with Some p -> s.uplink_port = p | None -> true
  in
  match List.find_opt wanted m.streams with
  | None -> invalid_arg "Switch_agent.register_leg: sender has no such uplink"
  | Some stream ->
      let leg =
        {
          leg_port;
          receiver;
          adaptive;
          ewma = Ewma.create ~alpha:0.3;
          target = Dd.DT_30fps;
          last_target_change_ns = min_int / 2;
        }
      in
      stream.legs <- stream.legs @ [ leg ];
      Hashtbl.replace t.leg_index leg_port (stream, leg);
      let simulcast =
        if Array.length stream.renditions = 0 then None
        else Some (Array.map fst stream.renditions)
      in
      Dataplane.register_leg ?simulcast t.dp ~receiver ~video_ssrc:stream.video_ssrc
        ~audio_ssrc:stream.audio_ssrc ~dst ~src_port:leg_port ~uplink_port:stream.uplink_port
        ~rewrite:(if t.rewriting_enabled then Some t.rewrite else None);
      if not t.feedback_filter then
        (* ablation: naive split-less forwarding of every receiver's REMB *)
        Dataplane.set_remb_forwarding t.dp ~leg_port true
      else if stream.best_leg = None then begin
        (* the first leg of a stream is the initial best downlink *)
        stream.best_leg <- Some leg_port;
        Dataplane.set_remb_forwarding t.dp ~leg_port true
      end

let set_pair_target t ~meeting:mid ~sender ~receiver target =
  let m = meeting t mid in
  m.pair_specific <- true;
  maybe_migrate t m;
  (match List.find_opt (fun s -> s.sender = sender) m.streams with
  | Some stream -> (
      match List.find_opt (fun l -> l.receiver = receiver) stream.legs with
      | Some leg ->
          leg.target <- target;
          Dataplane.set_leg_target t.dp ~receiver ~video_ssrc:stream.video_ssrc target
      | None -> ())
  | None -> ());
  if m.design = Trees.Ra_sr then
    Trees.set_pair_target (Dataplane.trees t.dp) m.handle ~sender ~receiver target
  else Trees.set_receiver_target (Dataplane.trees t.dp) m.handle ~receiver target

(* --- CPU-port packet handling ------------------------------------------------ *)

let answer_stun t (dgram : Dgram.t) =
  match Rtp.Stun.parse dgram.payload with
  | exception Rtp.Wire.Parse_error _ -> ()
  | msg when msg.Rtp.Stun.cls = Rtp.Stun.Request ->
      Metrics.incr t.stun_answered;
      let reply =
        Rtp.Stun.binding_success ~transaction_id:msg.Rtp.Stun.transaction_id
          ~mapped_ip:dgram.src.Addr.ip ~mapped_port:dgram.src.Addr.port
      in
      Dataplane.inject t.dp
        (Dgram.v ~src:dgram.dst ~dst:dgram.src (Rtp.Stun.serialize reply))
  | _ -> ()

(* The §5.3 filter function: smooth each leg's estimates, pick the max. *)
let run_filter t stream =
  if not t.feedback_filter then ()
  else
  let best =
    List.fold_left
      (fun acc leg ->
        match Ewma.value_opt leg.ewma with
        | None -> acc
        | Some v -> (
            match acc with
            | Some (_, best_v) when best_v >= v -> acc
            | _ -> Some (leg, v)))
      None stream.legs
  in
  match best with
  | None -> ()
  | Some (leg, _) ->
      if stream.best_leg <> Some leg.leg_port then begin
        (match stream.best_leg with
        | Some old -> Dataplane.set_remb_forwarding t.dp ~leg_port:old false
        | None -> ());
        Dataplane.set_remb_forwarding t.dp ~leg_port:leg.leg_port true;
        stream.best_leg <- Some leg.leg_port
      end

(* Downgrades apply immediately (QoE-critical); upgrades hold down for a
   while after any change, so a borderline link settles on a clean step
   instead of oscillating as GCC repeatedly probes the next layer up. *)
let upgrade_hold_down_ns = 20_000_000_000

let apply_target t m stream leg target =
  let upgrade = Dd.index_of_target target > Dd.index_of_target leg.target in
  let held =
    upgrade && Engine.now t.engine - leg.last_target_change_ns < upgrade_hold_down_ns
  in
  if target <> leg.target && not held then begin
    leg.target <- target;
    leg.last_target_change_ns <- Engine.now t.engine;
    Metrics.incr t.target_changes;
    Dataplane.set_leg_target t.dp ~receiver:leg.receiver ~video_ssrc:stream.video_ssrc target;
    if m.pair_specific && m.design = Trees.Ra_sr then
      Trees.set_pair_target (Dataplane.trees t.dp) m.handle ~sender:stream.sender
        ~receiver:leg.receiver target
    else
      Trees.set_receiver_target (Dataplane.trees t.dp) m.handle ~receiver:leg.receiver target;
    maybe_migrate t m
  end

(* Simulcast rendition selection: the best rendition whose bitrate fits
   under the smoothed estimate (10% headroom), with the same upgrade
   hold-down used for SVC targets; the switch engages at the key frame the
   PLI provokes. *)
let select_rendition t stream leg ~smoothed =
  match Dataplane.leg_rendition t.dp ~leg_port:leg.leg_port with
  | None -> ()
  | Some current ->
      let n = Array.length stream.renditions in
      let affordable i = float_of_int (snd stream.renditions.(i)) *. 1.1 <= float_of_int smoothed in
      let rec best i = if i >= n - 1 then n - 1 else if affordable i then i else best (i + 1) in
      let desired = best 0 in
      let upgrading = desired < current in
      let held =
        upgrading && Engine.now t.engine - leg.last_target_change_ns < upgrade_hold_down_ns
      in
      if desired <> current && not held then begin
        leg.last_target_change_ns <- Engine.now t.engine;
        Metrics.incr t.target_changes;
        Dataplane.set_leg_rendition t.dp ~leg_port:leg.leg_port desired;
        Dataplane.request_keyframe t.dp ~uplink_port:stream.uplink_port
          ~ssrc:(fst stream.renditions.(desired))
      end

let on_remb t stream leg estimate =
  Metrics.incr t.rembs_analyzed;
  Ewma.observe leg.ewma (float_of_int estimate);
  run_filter t stream;
  let m = meeting t stream.s_meeting in
  (* select on the smoothed estimate: a single keyframe-burst dip must not
     cost the receiver a quality layer *)
  let smoothed = int_of_float (Ewma.value leg.ewma) in
  if Array.length stream.renditions > 0 then select_rendition t stream leg ~smoothed
  else if leg.adaptive then begin
    let target =
      Codec.Rate_policy.select_decode_target ~current:leg.target ~estimate_bps:smoothed
        ~full_bitrate_bps:stream.full_bitrate
    in
    apply_target t m stream leg target
  end

let on_rtcp_copy t (dgram : Dgram.t) =
  match Hashtbl.find_opt t.leg_index dgram.dst.Addr.port with
  | None -> ()
  | Some (stream, leg) -> (
      match Rtp.Rtcp.parse_compound dgram.payload with
      | exception Rtp.Wire.Parse_error _ -> ()
      | packets ->
          List.iter
            (fun p ->
              match p with
              | Rtp.Rtcp.Remb { bitrate_bps; _ } -> on_remb t stream leg bitrate_bps
              | Rtp.Rtcp.Twcc _ | Rtp.Rtcp.Receiver_report _ | Rtp.Rtcp.Nack _
              | Rtp.Rtcp.Pli _ | Rtp.Rtcp.Sender_report _ | Rtp.Rtcp.Sdes _
              | Rtp.Rtcp.Bye _ -> ())
            packets)

let cpu_handler t (dgram : Dgram.t) =
  if t.alive then
    match Rtp.Demux.classify dgram.payload with
    | Rtp.Demux.Stun_packet -> answer_stun t dgram
    | Rtp.Demux.Rtcp_feedback -> on_rtcp_copy t dgram
    | Rtp.Demux.Rtp_media | Rtp.Demux.Unknown -> ()

(* --- control-plane endpoint --------------------------------------------------

   Maps each wire request onto its agent-local operation. Raised
   [Invalid_argument]s are converted to [Rpc.Error] replies by the
   server, so a bad request degrades into a typed error at the
   controller instead of an exception inside the agent. *)

(* Forget every session: meeting records (releasing their PRE trees),
   stream/leg indexes, then the data-plane tables. Shared by the Reset
   request (resync step one) and the crash path (a dead switch keeps no
   state). *)
let wipe t =
  Hashtbl.iter
    (fun _ m -> Trees.unregister_meeting (Dataplane.trees t.dp) m.handle)
    t.meetings;
  Hashtbl.reset t.meetings;
  Hashtbl.reset t.stream_by_uplink;
  Hashtbl.reset t.leg_index;
  Dataplane.reset t.dp

let rec dispatch t (req : Rpc.request) : Rpc.reply =
  match req with
  | Rpc.Batch ops ->
      (* ops run in list order; a member's failure becomes its [Error]
         slot in the reply list and the rest still execute, so partial
         failure is visible per-op instead of poisoning the batch *)
      let n = List.length ops in
      let traced = Trace.enabled Trace.Rpc in
      let label = if traced then Dataplane.obs_label t.dp else "" in
      if traced then
        Trace.instant ~ts:(Engine.now t.engine) ~cat:"agent" "batch_begin"
          ~args:[ ("agent", Trace.S label); ("n", Trace.I n) ];
      let indexed = List.mapi (fun i op -> (i, op)) ops in
      let order =
        if Mutation.on Mutation.Reverse_batch then List.rev indexed else indexed
      in
      let results =
        List.map
          (fun (i, op) ->
            let reply =
              match dispatch t op with
              | reply -> reply
              | exception Invalid_argument msg -> Rpc.Error msg
            in
            if traced then
              Trace.instant ~ts:(Engine.now t.engine) ~cat:"agent" "batch_op"
                ~args:
                  [
                    ("agent", Trace.S label);
                    ("idx", Trace.I i);
                    ( "ok",
                      Trace.S
                        (match reply with Rpc.Error _ -> "false" | _ -> "true") );
                  ];
            (i, reply))
          order
      in
      if traced then
        Trace.instant ~ts:(Engine.now t.engine) ~cat:"agent" "batch_end"
          ~args:[ ("agent", Trace.S label) ];
      (* replies always in submission order, so the controller's reply
         matching is oblivious to the (test-only) execution-order mutation *)
      Rpc.Batch_reply
        (List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) results))
  | Rpc.New_meeting { two_party } ->
      Rpc.Meeting_created { meeting = new_meeting t ~two_party }
  | Rpc.Register_participant { meeting; participant; egress_port; sends } ->
      register_participant t ~meeting ~participant ~egress_port ~sends;
      Rpc.Ack
  | Rpc.Register_uplink
      { meeting; sender; port; video_ssrc; audio_ssrc; full_bitrate; renditions } ->
      register_uplink ~renditions t ~meeting ~sender ~port ~video_ssrc ~audio_ssrc
        ~full_bitrate;
      Rpc.Ack
  | Rpc.Register_leg { meeting; sender; uplink_port; receiver; leg_port; dst; adaptive }
    ->
      register_leg t ~meeting ~sender ?uplink_port ~receiver ~leg_port ~dst ~adaptive ();
      Rpc.Ack
  | Rpc.Remove_participant { meeting; participant } ->
      remove_participant t ~meeting ~participant;
      Rpc.Ack
  | Rpc.Unregister_uplink { meeting; port } ->
      unregister_uplink t ~meeting ~port;
      Rpc.Ack
  | Rpc.Set_pair_target { meeting; sender; receiver; target } ->
      set_pair_target t ~meeting ~sender ~receiver target;
      Rpc.Ack
  | Rpc.Ping -> Rpc.Pong { epoch = t.epoch }
  | Rpc.Reset ->
      wipe t;
      Rpc.Ack
  | Rpc.Fenced { fence; op } ->
      if fence >= t.fence || Mutation.on Mutation.Skip_fencing_check then begin
        if fence > t.fence then t.fence <- fence;
        dispatch t op
      end
      else Rpc.Stale_fence { fence = t.fence }

let create engine dp ?(rewrite = Seq_rewrite.S_LM) ?(rewriting_enabled = true)
    ?(feedback_filter = true) () =
  let counter help name =
    Metrics.counter ~labels:[ ("switch", Dataplane.obs_label dp) ] ~help name
  in
  let t =
    {
      engine;
      dp;
      rewrite;
      rewriting_enabled;
      feedback_filter;
      meetings = Hashtbl.create 32;
      stream_by_uplink = Hashtbl.create 64;
      leg_index = Hashtbl.create 256;
      next_meeting = 0;
      alive = true;
      epoch = 0;
      fence = 0;
      stun_answered = counter "STUN binding requests answered" "scallop_agent_stun_answered";
      rembs_analyzed = counter "REMB estimates analyzed" "scallop_agent_rembs_analyzed";
      target_changes =
        counter "decode-target or rendition changes applied" "scallop_agent_target_changes";
      migrations = counter "meeting tree-design migrations" "scallop_agent_migrations";
      rpc_server = None;
    }
  in
  Dataplane.set_cpu_sink dp (cpu_handler t);
  t.rpc_server <-
    Some
      (Rpc_transport.Server.create engine
         ~label:(Dataplane.obs_label dp)
         ~handler:(fun req -> dispatch t req)
         ());
  t

let rpc_server t = Option.get t.rpc_server

(* --- crash / restart ---------------------------------------------------------

   The failure model is a whole-switch power loss: the agent process and
   the ASIC tables die together (the memory is gone the instant the
   lights go out), and a later restart is a fresh boot — empty state, no
   reply cache, and a bumped epoch so the controller's next heartbeat
   can tell "rebooted and blank" from "was merely unreachable". *)

let epoch t = t.epoch

let crash t =
  if t.alive then begin
    t.alive <- false;
    Rpc_transport.Server.set_online (rpc_server t) false;
    wipe t;
    if Trace.enabled Trace.Rpc then
      Trace.instant ~ts:(Engine.now t.engine) ~cat:"agent" "agent_crash"
        ~args:[ ("agent", Trace.S (Dataplane.obs_label t.dp)) ]
  end

let restart t =
  crash t;
  t.epoch <- t.epoch + 1;
  t.next_meeting <- 0;
  t.fence <- 0;
  t.alive <- true;
  let server = rpc_server t in
  Rpc_transport.Server.flush_cache server;
  Rpc_transport.Server.set_online server true;
  if Trace.enabled Trace.Rpc then
    Trace.instant ~ts:(Engine.now t.engine) ~cat:"agent" "agent_restart"
      ~args:
        [
          ("agent", Trace.S (Dataplane.obs_label t.dp));
          ("epoch", Trace.I t.epoch);
        ]

let meeting_members t mid = List.map fst (meeting t mid).members

(* --- introspection (snapshot layer) ---------------------------------------- *)

type leg_view = {
  alv_port : int;
  alv_receiver : int;
  alv_adaptive : bool;
  alv_target : Dd.decode_target;
}

type stream_view = {
  asv_uplink_port : int;
  asv_sender : int;
  asv_video_ssrc : int;
  asv_audio_ssrc : int;
  asv_renditions : (int * int) array;
  asv_best_leg : int option;
  asv_legs : leg_view list;
}

type meeting_view = {
  amv_id : meeting_id;
  amv_design : Trees.design;
  amv_handle : Trees.handle;
  amv_members : (int * int) list;
  amv_senders : int list;
  amv_pair_specific : bool;
  amv_streams : stream_view list;
}

let introspect t =
  Hashtbl.fold
    (fun _ m acc ->
      {
        amv_id = m.mid;
        amv_design = m.design;
        amv_handle = m.handle;
        amv_members = m.members;
        amv_senders = m.sender_members;
        amv_pair_specific = m.pair_specific;
        amv_streams =
          List.map
            (fun s ->
              {
                asv_uplink_port = s.uplink_port;
                asv_sender = s.sender;
                asv_video_ssrc = s.video_ssrc;
                asv_audio_ssrc = s.audio_ssrc;
                asv_renditions = s.renditions;
                asv_best_leg = s.best_leg;
                asv_legs =
                  List.map
                    (fun l ->
                      {
                        alv_port = l.leg_port;
                        alv_receiver = l.receiver;
                        alv_adaptive = l.adaptive;
                        alv_target = l.target;
                      })
                    s.legs;
              })
            m.streams;
      }
      :: acc)
    t.meetings []
  |> List.sort (fun a b -> compare a.amv_id b.amv_id)

let current_target t ~meeting:mid ~sender ~receiver =
  let m = meeting t mid in
  match List.find_opt (fun s -> s.sender = sender) m.streams with
  | None -> Dd.DT_30fps
  | Some stream -> (
      match List.find_opt (fun l -> l.receiver = receiver) stream.legs with
      | Some leg -> leg.target
      | None -> Dd.DT_30fps)
