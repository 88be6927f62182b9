(* The control-plane protocol contract as data. Each rule is built fresh
   per run (closures carry mutable state). Event vocabulary: see the
   instrumentation in Rpc_transport.Server.deliver ("rpc_exec"),
   Switch_agent ("member_add/del", "batch_*", "agent_crash/restart") and
   Controller ("op_skip", "heal_begin/heal_done", "hb_*",
   "agent_dead/agent_suspect/agent_healthy").

   Two namespaces identify agents: server-side events carry the
   data-plane label ("sw0"), controller-side events carry the switch
   index (0). No rule ever needs to join the two. *)

open Temporal

let req what = function
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Rules: event missing %s arg" what)

let agent_s ev = req "agent" (arg_s ev "agent")
let agent_i ev = req "agent" (arg_i ev "agent")

(* R1 — wire-level exactly-once: no (agent, client, seq) executes twice
   with [replayed=false] within one agent epoch. Replays served from the
   seq cache are fine; a cross-reboot re-execution is the agent-restart
   model (the wipe discards the cache together with the state the op
   acted on) and is judged by the effect rule instead. *)
let exactly_once_wire () =
  let restarts : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let seen : (string * string * int, int * int) Hashtbl.t = Hashtbl.create 64 in
  make
    ~step:(fun ~idx ev ->
      if is ev "agent_restart" then begin
        let a = agent_s ev in
        Hashtbl.replace restarts a
          (1 + Option.value ~default:0 (Hashtbl.find_opt restarts a));
        []
      end
      else if is ev "rpc_exec" && arg_s ev "replayed" = Some "false" then begin
        let a = agent_s ev in
        let key = (a, req "src" (arg_s ev "src"), req "seq" (arg_i ev "seq")) in
        let era = Option.value ~default:0 (Hashtbl.find_opt restarts a) in
        match Hashtbl.find_opt seen key with
        | Some (era', first) when era' = era ->
            let _, src, seq = key in
            [
              {
                v_rule = "exactly-once-wire";
                v_detail =
                  Printf.sprintf
                    "agent %s re-executed %s seq=%d from %s (first execution \
                     at event %d, same epoch)"
                    a
                    (Option.value ~default:"?" (arg_s ev "name"))
                    seq src first;
                v_ts = ev.ts;
                v_events = [ first; idx ];
              };
            ]
        | _ ->
            Hashtbl.replace seen key (era, idx);
            []
      end
      else [])
    ~final:(fun ~now:_ -> [])

(* R2 — effect-level exactly-once: registering a participant must never
   leave it in the member list twice, on any agent. A duplicate is the
   heal-race signature (a resync replays intent, then a straddling
   retransmit re-executes on the healed agent) or an op executed twice
   outside the replay cache. *)
let exactly_once_effect () =
  always ~name:"exactly-once-effect"
    (fun ~idx:_ ev ->
      if is ev "member_add" then
        let count = req "count" (arg_i ev "count") in
        if count > 1 then
          Some
            (Printf.sprintf
               "agent %s: participant %d added to meeting %d with multiplicity \
                %d — the join executed twice"
               (agent_s ev)
               (req "participant" (arg_i ev "participant"))
               (req "meeting" (arg_i ev "meeting"))
               count)
        else None
      else None)

(* R3 — epoch monotonicity: pong-observed epochs never regress per
   switch index; agent restarts strictly increase the epoch per label. *)
let epoch_monotone () =
  let pong : (int, int * int) Hashtbl.t = Hashtbl.create 4 in
  let boot : (string, int * int) Hashtbl.t = Hashtbl.create 4 in
  make
    ~step:(fun ~idx ev ->
      if is ev "hb_pong" then begin
        let a = agent_i ev and e = req "epoch" (arg_i ev "epoch") in
        match Hashtbl.find_opt pong a with
        | Some (e', at) when e < e' ->
            [
              {
                v_rule = "epoch-monotone";
                v_detail =
                  Printf.sprintf
                    "switch %d pong reported epoch %d after epoch %d" a e e';
                v_ts = ev.ts;
                v_events = [ at; idx ];
              };
            ]
        | _ ->
            Hashtbl.replace pong a (e, idx);
            []
      end
      else if is ev "agent_restart" then begin
        let a = agent_s ev and e = req "epoch" (arg_i ev "epoch") in
        match Hashtbl.find_opt boot a with
        | Some (e', at) when e <= e' ->
            [
              {
                v_rule = "epoch-monotone";
                v_detail =
                  Printf.sprintf
                    "agent %s restarted into epoch %d, not above epoch %d" a e
                    e';
                v_ts = ev.ts;
                v_events = [ at; idx ];
              };
            ]
        | _ ->
            Hashtbl.replace boot a (e, idx);
            []
      end
      else [])
    ~final:(fun ~now:_ -> [])

(* R4 — no execution on a crashed agent: between agent_crash and the
   next agent_restart the server must not execute (or even answer)
   anything. *)
let no_exec_while_crashed () =
  let down : (string, int) Hashtbl.t = Hashtbl.create 4 in
  make
    ~step:(fun ~idx ev ->
      if is ev "agent_crash" then begin
        Hashtbl.replace down (agent_s ev) idx;
        []
      end
      else if is ev "agent_restart" then begin
        Hashtbl.remove down (agent_s ev);
        []
      end
      else if is ev "rpc_exec" then begin
        let a = agent_s ev in
        match Hashtbl.find_opt down a with
        | Some crash_at ->
            [
              {
                v_rule = "no-exec-while-crashed";
                v_detail =
                  Printf.sprintf
                    "agent %s executed %s seq=%d while crashed (down since \
                     event %d)"
                    a
                    (Option.value ~default:"?" (arg_s ev "name"))
                    (req "seq" (arg_i ev "seq"))
                    crash_at;
                v_ts = ev.ts;
                v_events = [ crash_at; idx ];
              };
            ]
        | None -> []
      end
      else [])
    ~final:(fun ~now:_ -> [])

(* R5 — batch discipline: ops execute in submission order (idx 0,1,...),
   every op runs exactly once (per-op errors are isolated, they must not
   abort the rest), and batches do not nest. *)
let batch_order () =
  let open_b : (string, int * int * int) Hashtbl.t = Hashtbl.create 4 in
  (* label -> (n, next expected idx, begin event) *)
  make
    ~step:(fun ~idx ev ->
      let viol detail at =
        [
          {
            v_rule = "batch-order";
            v_detail = detail;
            v_ts = ev.ts;
            v_events = (if at = idx then [ idx ] else [ at; idx ]);
          };
        ]
      in
      if is ev "batch_begin" then begin
        let a = agent_s ev and n = req "n" (arg_i ev "n") in
        let out =
          match Hashtbl.find_opt open_b a with
          | Some (_, _, at) ->
              viol (Printf.sprintf "agent %s: batch_begin inside a batch" a) at
          | None -> []
        in
        Hashtbl.replace open_b a (n, 0, idx);
        out
      end
      else if is ev "batch_op" then begin
        let a = agent_s ev and i = req "idx" (arg_i ev "idx") in
        match Hashtbl.find_opt open_b a with
        | None ->
            viol (Printf.sprintf "agent %s: batch_op outside a batch" a) idx
        | Some (n, expect, at) ->
            Hashtbl.replace open_b a (n, expect + 1, at);
            if i <> expect then
              viol
                (Printf.sprintf
                   "agent %s: batch op %d executed out of submission order \
                    (expected op %d)"
                   a i expect)
                at
            else []
      end
      else if is ev "batch_end" then begin
        let a = agent_s ev in
        match Hashtbl.find_opt open_b a with
        | None ->
            viol (Printf.sprintf "agent %s: batch_end outside a batch" a) idx
        | Some (n, got, at) ->
            Hashtbl.remove open_b a;
            if got <> n then
              viol
                (Printf.sprintf
                   "agent %s: batch executed %d of %d ops — per-op error \
                    isolation broken"
                   a got n)
                at
            else []
      end
      else [])
    ~final:(fun ~now:_ -> [])

(* R6 — skipped ops are eventually healed: an op whose wire side was
   skipped (the switch was Dead or healing, or its batch went
   unacknowledged) leaves the switch out of sync until a complete resync.
   A liveness rule: a switch that ends the run Healthy must have a
   [heal_done] after its last [op_skip]. A switch still Dead at the end
   is excused — the run ended mid-outage. *)
let skipped_ops_healed () =
  let pending : (int, int) Hashtbl.t = Hashtbl.create 4 in
  (* switch -> last unhealed op_skip event *)
  let dead : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  make
    ~step:(fun ~idx ev ->
      if is ev "op_skip" then Hashtbl.replace pending (agent_i ev) idx
      else if is ev "heal_done" then Hashtbl.remove pending (agent_i ev)
      else if is ev "agent_dead" then Hashtbl.replace dead (agent_i ev) ()
      else if is ev "agent_healthy" then Hashtbl.remove dead (agent_i ev);
      [])
    ~final:(fun ~now ->
      Hashtbl.fold
        (fun a at acc ->
          if Hashtbl.mem dead a then acc
          else
            {
              v_rule = "skipped-ops-healed";
              v_detail =
                Printf.sprintf
                  "switch %d ended the run healthy with skipped ops no resync \
                   covered"
                  a;
              v_ts = now;
              v_events = [ at ];
            }
            :: acc)
        pending []
      |> List.sort (fun a b -> compare a.v_events b.v_events))

(* R7 — heartbeat liveness: while health monitoring runs, ticks arrive
   at least every 2x the configured interval. *)
let hb_liveness () =
  let running = ref false in
  let interval = ref 0 in
  let last = ref (-1, -1) in
  (* (ts, event idx) of last tick *)
  make
    ~step:(fun ~idx ev ->
      if is ev "hb_start" then begin
        running := true;
        interval := req "interval" (arg_i ev "interval");
        last := (ev.ts, idx);
        []
      end
      else if is ev "hb_stop" then begin
        running := false;
        []
      end
      else if is ev "hb_tick" then begin
        let prev_ts, prev_idx = !last in
        last := (ev.ts, idx);
        if !running && prev_ts >= 0 && ev.ts - prev_ts > 2 * !interval then
          [
            {
              v_rule = "hb-liveness";
              v_detail =
                Printf.sprintf
                  "heartbeat gap of %dns exceeds 2x interval (%dns)"
                  (ev.ts - prev_ts) !interval;
              v_ts = ev.ts;
              v_events = [ prev_idx; idx ];
            };
          ]
        else []
      end
      else [])
    ~final:(fun ~now ->
      let prev_ts, prev_idx = !last in
      if !running && prev_ts >= 0 && now - prev_ts > 2 * !interval then
        [
          {
            v_rule = "hb-liveness";
            v_detail =
              Printf.sprintf
                "heartbeats stopped firing: %dns since last tick at end of \
                 run (interval %dns)"
                (now - prev_ts) !interval;
            v_ts = now;
            v_events = [ prev_idx ];
          };
        ]
      else [])

(* R8 — replay fidelity: a cache-served reply is byte-identical to the
   original execution's reply (compared via the payload digest). *)
let replay_identical () =
  let orig : (string * string * int, int * int) Hashtbl.t =
    Hashtbl.create 64
  in
  make
    ~step:(fun ~idx ev ->
      if is ev "rpc_exec" then begin
        let key =
          ( agent_s ev,
            req "src" (arg_s ev "src"),
            req "seq" (arg_i ev "seq") )
        in
        let digest = req "digest" (arg_i ev "digest") in
        if arg_s ev "replayed" = Some "false" then begin
          Hashtbl.replace orig key (digest, idx);
          []
        end
        else
          match Hashtbl.find_opt orig key with
          | Some (d, at) when d <> digest ->
              let _, src, seq = key in
              [
                {
                  v_rule = "replay-identical";
                  v_detail =
                    Printf.sprintf
                      "agent %s: replay of seq=%d from %s differs from the \
                       original reply"
                      (agent_s ev) seq src;
                  v_ts = ev.ts;
                  v_events = [ at; idx ];
                };
              ]
          | _ -> []
      end
      else [])
    ~final:(fun ~now:_ -> [])

(* R9 — quiet channel before heal: a heal must never begin while a
   blocking call is in flight on that switch's channel (the guard whose
   absence causes the straddling-retransmit double-execution). *)
let quiet_heal () =
  always ~name:"quiet-heal"
    (fun ~idx:_ ev ->
      if is ev "heal_begin" then
        match arg_i ev "in_flight" with
        | Some n when n > 0 ->
            Some
              (Printf.sprintf
                 "switch %d began healing with %d request(s) in flight"
                 (agent_i ev) n)
        | _ -> None
      else None)

(* R10 — fencing epochs strictly increase: every controller activation
   ([ctrl_activate], emitted by a promotion) mints a fence strictly above
   every fence activated before it. Two primaries acting under one epoch
   would make the agents' highest-fence-wins acceptance rule vacuous. *)
let fence_monotone () =
  let last = ref None in
  (* (fence, ctrl label, event idx) of the latest activation *)
  make
    ~step:(fun ~idx ev ->
      if is ev "ctrl_activate" then begin
        let f = req "fence" (arg_i ev "fence") in
        let who = Option.value ~default:"?" (arg_s ev "ctrl") in
        match !last with
        | Some (f', who', at) when f <= f' ->
            [
              {
                v_rule = "fence-monotone";
                v_detail =
                  Printf.sprintf
                    "controller %s activated under fence %d, not above fence \
                     %d already activated by %s"
                    who f f' who';
                v_ts = ev.ts;
                v_events = [ at; idx ];
              };
            ]
        | _ ->
            last := Some (f, who, idx);
            []
      end
      else [])
    ~final:(fun ~now:_ -> [])

(* R11 — no op from a deposed epoch ever executes: once an agent accepts
   a fenced op under epoch f, it must reject (Stale_fence) anything
   fenced below f. Scoped per agent boot — a restarted agent forgets its
   fence (by design) and the acting primary's first fenced resync
   re-installs it. A fresh execution (replayed=false) that was not
   rejected and carries a fence below the agent's high-water mark is the
   split-brain signature the skip-fencing-check mutation plants. *)
let no_deposed_exec () =
  let restarts : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let hi : (string * int, int * int) Hashtbl.t = Hashtbl.create 8 in
  (* (agent, boot era) -> (max accepted fence, its event idx) *)
  make
    ~step:(fun ~idx ev ->
      if is ev "agent_restart" then begin
        let a = agent_s ev in
        Hashtbl.replace restarts a
          (1 + Option.value ~default:0 (Hashtbl.find_opt restarts a));
        []
      end
      else if
        is ev "rpc_exec"
        && arg_s ev "replayed" = Some "false"
        && arg_s ev "rejected" <> Some "true"
      then begin
        match arg_i ev "fence" with
        | None -> [] (* unfenced request: single-controller traffic *)
        | Some f -> (
            let a = agent_s ev in
            let era = Option.value ~default:0 (Hashtbl.find_opt restarts a) in
            match Hashtbl.find_opt hi (a, era) with
            | Some (f', at) when f < f' ->
                [
                  {
                    v_rule = "no-deposed-exec";
                    v_detail =
                      Printf.sprintf
                        "agent %s executed %s seq=%d under deposed fence %d \
                         after accepting fence %d (event %d, same boot)"
                        a
                        (Option.value ~default:"?" (arg_s ev "name"))
                        (req "seq" (arg_i ev "seq"))
                        f f' at;
                    v_ts = ev.ts;
                    v_events = [ at; idx ];
                  };
                ]
            | Some (f', _) when f > f' ->
                Hashtbl.replace hi (a, era) (f, idx);
                []
            | Some _ -> []
            | None ->
                Hashtbl.replace hi (a, era) (f, idx);
                [])
      end
      else [])
    ~final:(fun ~now:_ -> [])

let all () =
  [
    exactly_once_wire ();
    exactly_once_effect ();
    epoch_monotone ();
    no_exec_while_crashed ();
    batch_order ();
    skipped_ops_healed ();
    hb_liveness ();
    replay_identical ();
    quiet_heal ();
    fence_monotone ();
    no_deposed_exec ();
  ]
