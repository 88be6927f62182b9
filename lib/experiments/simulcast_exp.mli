(** Simulcast splicing demonstration (§3 names Simulcast as the sibling
    scalability technology Zoom combines with SVC).

    One simulcast sender (2.5 M / 900 k / 300 k renditions), one healthy
    and one constrained receiver: the switch splices the constrained
    receiver onto a cheaper rendition at a key frame — both receivers see
    a single continuous stream at full frame rate, no freezes. *)

type result = {
  fast_kbps : float;
  slow_kbps : float;
  fast_fps : float;
  slow_fps : float;
  freezes : int;
}

val compute : ?quick:bool -> unit -> result
val claims : result Claim.t list
val print : result -> unit
