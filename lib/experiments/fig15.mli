(** Fig. 15 — Scallop's scalability gain over a 32-core server.

    The capacity model sweeps the number of participants per meeting
    (all sending, two media types) and reports the ratio of meetings
    supported by the switch to meetings supported by the server. The blue
    band of the paper is bounded below by the most constrained
    configuration (RA-SR trees with S-LR's memory footprint) and above by
    the least constrained (NRA with S-LM); two-party meetings get their
    dedicated unicast fast path. The paper's values are in [claims]. *)

type point = { participants : int; gain_low : float; gain_high : float }

type result = {
  two_party_gain : float;
  points : point list;
  min_gain : float;
  max_gain : float;
}

val compute : unit -> result
val claims : result Claim.t list
val print : result -> unit
