(** Registry of every paper artefact reproduction, keyed by the experiment
    ids used in DESIGN.md's experiment index. *)

type entry = {
  id : string;  (** e.g. "fig14", "tab1" *)
  title : string;
  claims : string list;  (** {!Claim.describe} of each of its claims *)
  run : ?quick:bool -> unit -> unit;
      (** compute, print the tables, then print the claim rows *)
  check : quick:bool -> Claim.row list;
      (** compute, then evaluate every claim on the result *)
}

val all : entry list
val find : string -> entry option

val run_all : ?quick:bool -> unit -> unit
(** Run every entry under a header naming its id, title and claims. *)
