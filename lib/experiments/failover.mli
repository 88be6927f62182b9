(** Failure-recovery experiment: a live meeting survives a seed-derived
    chaos schedule — a switch power-cycle, a controller↔switch control
    partition, and a degraded-control burst — with churn landing
    mid-outage.

    Measures, all in virtual time: detection→recovery latency per resync
    (after the reboot, and after the partition when ops were skipped
    during it), media continuity through the partition (egress
    replicas emitted while control is severed), and a full
    {!Scallop_analysis} verification after the last heal, which must be
    error-free. *)

type recovery = {
  detected_ms : float;  (** when the failure detector declared Dead *)
  recovered_ms : float;  (** when the resync committed *)
  latency_ms : float;
  ops : int;  (** RPCs the resync took *)
}

type result = {
  schedule : Netsim.Chaos.schedule;
  recoveries : recovery list;  (** oldest first *)
  partition_egress : (int * int) list;
      (** (partition start ns, egress replicas during the outage) *)
  skipped_peak : int;  (** peak ops skipped against an unavailable switch *)
  findings_after : Scallop_analysis.finding list;  (** post-recovery verify *)
}

val compute : ?quick:bool -> ?seed:int -> unit -> result
val claims : result Claim.t list
val print : result -> unit
