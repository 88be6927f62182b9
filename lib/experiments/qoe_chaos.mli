(** End-to-end QoE observability drill: a healthy meeting, a seeded loss
    burst on one receiver's named downlink, SLO burn-rate alerts fired by
    the {!Scallop_obs.Slo} engine, and trace-linked attribution
    ({!Scallop_obs.Attrib}) walking the alert back to the faulty link.
    The scenario behind [scallop_cli qoe] and the CI qoe gate. *)

type result = {
  victim : int;  (** participant id of the afflicted receiver *)
  victim_link : string;  (** named downlink the loss was injected on *)
  loss : float;
  burst_from_s : float;
  burst_until_s : float;
  alerts : Scallop_obs.Slo.alert list;  (** every alert fired, oldest first *)
  findings : Scallop_obs.Attrib.finding list;
      (** attribution of the first alert against the victim *)
  summaries : Scallop_obs.Qoe.summary list;
  link_named : bool;  (** some finding cites [victim_link] *)
  roundtrip_ok : bool;
      (** every finding's JSON parses back to an equal finding *)
}

val compute : ?quick:bool -> ?seed:int -> ?loss:float -> unit -> result
(** Deterministic: the same [seed] yields identical alerts and findings.
    Resets the trace ring and the QoE registry, and restores the previous
    trace level on return. *)

val claims : result Claim.t list

val print : result -> unit
(** The human report of [scallop_cli qoe]: the per-stream QoE table, the
    alerts, the findings and a one-line verdict. *)
