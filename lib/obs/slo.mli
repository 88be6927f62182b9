(** Declarative QoE service-level objectives with multi-window burn-rate
    alerting over the live {!Qoe} collectors.

    A spec states an objective ("p99 mouth-to-ear ≤ 150 ms" is: at most
    [budget] = 1% of samples above the threshold), and two sliding
    windows. {!evaluate} computes the bad-event fraction over both
    windows for every matching collector; when {e both} burn rates
    (bad/budget) reach [fire_burn] the SLO fires one alert (deduplicated
    while it keeps burning, re-armed once it stops). Alerts increment
    [scallop_slo_alerts_total{slo=...}] and are surfaced by
    [scallop_cli check] / [scallop_cli qoe]. *)

type objective =
  | Mouth_to_ear of { threshold_ms : float }
      (** bad = mouth-to-ear sample above the threshold *)
  | Freeze_ratio  (** bad = frozen playback time share *)
  | Loss_ratio  (** bad = unrecovered-loss share of expected packets *)

type spec = {
  slo : string;  (** stable alert/metric label *)
  objective : objective;
  kinds : Qoe.kind list;  (** which stream kinds the SLO applies to *)
  budget : float;  (** allowed bad fraction, e.g. 0.01 for a p99 target *)
  long_ns : int;
  short_ns : int;
  fire_burn : float;  (** fire when both window burn rates reach this *)
}

type alert = {
  a_slo : string;
  a_key : Qoe.key;
  a_at_ns : int;
  a_burn_long : float;
  a_burn_short : float;
  a_from_ns : int;  (** long-window start — the attribution window *)
  a_until_ns : int;
}

type t

val create : ?specs:spec list -> unit -> t
(** Registers one [scallop_slo_alerts_total{slo=...}] counter per spec.
    [specs] defaults to p99 mouth-to-ear ≤ 150 ms, freeze ratio ≤ 0.5%
    and loss ratio ≤ 1%, over 8 s / 2 s windows scaled to
    simulated-meeting horizons. *)

val evaluate : t -> now_ns:int -> alert list
(** Evaluate every spec against every live collector; returns the alerts
    that fired {e this} evaluation (all alerts accumulate in {!alerts}).
    Call periodically (e.g. [Engine.every] 500 ms). *)

val alerts : t -> alert list
(** Every alert fired since creation, oldest first. *)

val alert_str : alert -> string
