(** Fig. 22 — bytes a software SFU vs the Scallop switch agent would
    process under a week of campus load.

    The software SFU touches every media byte; the agent only sees the
    control-plane share measured in Table 1 (~0.35% of bytes). The
    paper's peaks are in [claims]. *)

type result = {
  software_peak_mbps : float;
  agent_peak_mbps : float;
  reduction : float;
  daily_software_peaks : (int * float) list;
}

val compute : ?quick:bool -> unit -> result
val claims : result Claim.t list
val print : result -> unit
