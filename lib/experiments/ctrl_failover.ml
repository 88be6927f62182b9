(* Controller-failover drill: recovery latency vs journal size.

   One primary/standby cluster per point. Churn (repeated pair-target
   pins, one journal entry each) grows the intent journal to a target
   size, then the primary is killed and three latencies are read off
   the virtual clock: detection+takeover (kill -> standby acting),
   service resumption (kill -> first mutation accepted again), and the
   crash-rebuild replay cost (journal entries a restarted instance must
   re-execute). Each journal size runs twice — compaction off and the
   cluster default — so the table shows what the standby-driven
   snapshots buy: takeover stays detection-bound (about two beat
   intervals) no matter how much history exists, while the rebuild's
   replay suffix is bounded by the compaction cadence instead of the
   total churn. *)

module Engine = Netsim.Engine
module C = Scallop.Controller
module Cl = Scallop.Cluster
module J = Scallop.Journal
module An = Scallop_analysis
module Table = Scallop_util.Table

type point = {
  churn_ops : int;  (** journaled churn ops before the kill *)
  compact_every : int;  (** 0 = compaction disabled *)
  appended : int;  (** total journal appends at the kill *)
  live_at_kill : int;  (** live (uncompacted) entries at the kill *)
  compactions : int;
  promote_ms : float;  (** kill -> standby holds the Acting role *)
  resume_ms : float;  (** kill -> first mutation accepted again *)
  rebuild_replayed : int;
      (** entries a freshly restarted instance replays (its snapshot
          restore covers the rest) *)
  findings_after : An.finding list;  (** endpoint verify + cluster check *)
}

let measure ~churn ~compact_every ~seed =
  let stack = Common.make_scallop ~seed ~pair:{ Cl.default with Cl.compact_every } () in
  let cluster = Option.get stack.Common.cluster in
  let engine = stack.Common.engine in
  let _mid, parts = Common.scallop_meeting stack ~participants:4 ~senders:2 () in
  Cl.start_health cluster;
  Common.run_for engine ~seconds:0.5;
  let pids = List.map fst parts in
  let s0 = List.nth pids 0 and s1 = List.nth pids 1 in
  let r0 = List.nth pids 2 and r1 = List.nth pids 3 in
  for i = 0 to churn - 1 do
    Engine.at engine
      ~time:(Engine.ms (500 + (i * 5)))
      (fun () ->
        C.set_pair_target (Cl.endpoint cluster)
          ~sender:(if i mod 2 = 0 then s0 else s1)
          ~receiver:(if i mod 2 = 0 then r0 else r1)
          (Av1.Dd.target_of_index (i mod 3)))
  done;
  Common.run_for engine ~seconds:(0.5 +. (0.005 *. float_of_int churn) +. 0.5);
  let j = Cl.journal cluster in
  let appended = J.appended j in
  let live_at_kill = J.length j in
  let compactions = J.compactions j in
  let t_kill = Engine.now engine in
  Cl.kill_primary cluster;
  let promote_ns = ref (-1) in
  let resume_ns = ref (-1) in
  Engine.every engine ~interval:(Engine.ms 1) (fun () ->
      if !promote_ns < 0 && C.role (Cl.standby cluster) = C.Acting then
        promote_ns := Engine.now engine - t_kill;
      if !promote_ns >= 0 && !resume_ns < 0 then begin
        match
          C.set_pair_target (Cl.endpoint cluster) ~sender:s0 ~receiver:r0
            (Av1.Dd.target_of_index 1)
        with
        | () -> resume_ns := Engine.now engine - t_kill
        | exception (C.Unavailable | C.Deposed_primary) -> ()
      end;
      !resume_ns < 0);
  Common.run_for engine ~seconds:3.0;
  (* crash rebuild: the suffix a restarted instance replays is exactly
     the live log (its snapshot restore covers everything compacted) *)
  let rebuild_replayed = J.length j in
  Cl.restart_killed cluster;
  Common.run_for engine ~seconds:1.0;
  Cl.stop cluster;
  let ep = Cl.endpoint cluster in
  {
    churn_ops = churn;
    compact_every;
    appended;
    live_at_kill;
    compactions;
    promote_ms = float_of_int !promote_ns /. 1e6;
    resume_ms = float_of_int !resume_ns /. 1e6;
    rebuild_replayed;
    findings_after = An.verify ep @ An.check_cluster cluster;
  }

type result = { points : point list; beat_ms : float }

let compute ?(quick = false) ?(seed = 47) () =
  let sizes = if quick then [ 16; 64 ] else [ 32; 128; 512 ] in
  let modes = [ 0; Cl.default.Cl.compact_every ] in
  let points =
    List.concat_map
      (fun churn ->
        List.map (fun compact_every -> measure ~churn ~compact_every ~seed) modes)
      sizes
  in
  { points; beat_ms = float_of_int Cl.default.Cl.beat_every_ns /. 1e6 }

let claims =
  let worst f r = List.fold_left (fun acc p -> Float.max acc (f r p)) 0.0 r.points in
  [
    Claim.float "§5.1" "slowest takeover in beats" ~paper:"restartable session state"
      ~le:2.0 (worst (fun r p -> p.promote_ms /. r.beat_ms));
    Claim.float "§5.1" "rebuild replay / compaction cadence" ~paper:"bounded rebuild"
      ~le:1.0 (worst (fun _ p ->
        if p.compact_every = 0 then 0.0
        else float_of_int p.rebuild_replayed /. float_of_int p.compact_every));
    Claim.int "§5.1" "unclean recoveries" ~paper:"clean takeover" ~eq:0 (fun r ->
        List.length (List.filter (fun p -> An.errors p.findings_after <> []) r.points));
  ]

let print r =
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Controller failover: recovery latency vs journal size (%.0f ms beats)"
           r.beat_ms)
      ~columns:
        [ "churn ops"; "compact"; "appended"; "live@kill"; "snapshots";
          "promote ms"; "resume ms"; "rebuild replay"; "clean" ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [ Table.cell_i p.churn_ops;
          (if p.compact_every = 0 then "off"
           else Printf.sprintf "every %d" p.compact_every);
          Table.cell_i p.appended; Table.cell_i p.live_at_kill;
          Table.cell_i p.compactions; Table.cell_f ~decimals:0 p.promote_ms;
          Table.cell_f ~decimals:0 p.resume_ms; Table.cell_i p.rebuild_replayed;
          (if An.errors p.findings_after = [] then "yes" else "NO") ])
    r.points;
  Table.print table;
  print_string
    "Takeover is detection-bound: promote latency sits at ~2 beat intervals for every\n\
     journal size, because the standby tails continuously and only fences + resyncs on\n\
     promotion. The crash-rebuild replay suffix grows with total churn when compaction\n\
     is off, but stays under the compaction cadence when the standby snapshots — the\n\
     journal's disk footprint and a cold restart's work are both bounded.\n"
