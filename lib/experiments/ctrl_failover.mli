(** Controller-failover drill: recovery latency vs journal size.

    Grows the intent journal with pair-target churn, kills the acting
    primary, and measures detection+takeover latency, service-resume
    latency, and the crash-rebuild replay suffix — with compaction off
    vs the cluster default — to show takeover is detection-bound while
    rebuild cost is bounded by the compaction cadence. *)

type point = {
  churn_ops : int;
  compact_every : int;
  appended : int;
  live_at_kill : int;
  compactions : int;
  promote_ms : float;
  resume_ms : float;
  rebuild_replayed : int;
  findings_after : Scallop_analysis.finding list;
}

type result = { points : point list; beat_ms : float }

val compute : ?quick:bool -> ?seed:int -> unit -> result
val claims : result Claim.t list
val print : result -> unit
