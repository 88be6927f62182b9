(** Fig. 16 — best-case and worst-case meeting counts.

    For each meeting size N, the upper bound of each system's band has a
    single sender (e.g. a lecture) and the lower bound has all N
    participants sending. Scallop uses the best feasible tree design per
    configuration; the server uses the 32-core leg model. The paper's
    observation to preserve: Scallop supports more meetings than software
    at every point, with both bands separated by orders of magnitude. *)

type point = {
  participants : int;
  scallop_low : int;
  scallop_high : int;
  software_low : int;
  software_high : int;
}

type result = { points : point list; always_ahead : bool }

val compute : unit -> result
val claims : result Claim.t list
val print : result -> unit
