(** Table 3 — Tofino resource utilization of the Scallop data plane.

    Static accounting of the data-plane program (tables, registers,
    parser depths, PHV, VLIW) against Tofino2 per-stage budgets, plus the
    two egress-throughput rows: under peak campus load (from the Fig. 22
    dataset) and at maximum utilization (65,536 concurrent rate-adapted
    streams at ~3 Mb/s each ≈ 197 Gb/s). *)

type result = {
  rows : Tofino.Resources.row list;
  egress_campus_gbps : float;
  egress_max_gbps : float;
  stages_fit : bool;
}

val compute : ?quick:bool -> unit -> result
val claims : result Claim.t list
val print : result -> unit
