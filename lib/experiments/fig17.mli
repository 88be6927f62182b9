(** Fig. 17 — performance of the replication-tree construction designs.

    Meetings supported per design (two-party unicast, NRA, RA-R, RA-SR)
    with all participants sending, alongside the stream-tracker memory
    limits for S-LM and S-LR and the 32-core software line. The system's
    capacity at any point is the minimum of the applicable lines; the
    figure shows where each hardware constraint binds. *)

type point = {
  participants : int;
  nra : int;
  ra_r : int;
  ra_sr : int;
  tracker_slm : int;
  tracker_slr : int;
  software : int;
}

type result = { two_party : int; points : point list }

val compute : unit -> result
val claims : result Claim.t list
val print : result -> unit
