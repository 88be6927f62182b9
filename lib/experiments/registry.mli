(** Registry of every paper artefact reproduction, keyed by the experiment
    ids used in DESIGN.md's experiment index. *)

type entry = {
  id : string;  (** e.g. "fig14", "tab1" *)
  title : string;
  claims : string list;  (** {!Claim.describe} of each of its claims *)
  run : ?quick:bool -> unit -> bool;
      (** compute, print the tables, then print the claim rows; [true]
          when every claim holds *)
  check : quick:bool -> Claim.row list;
      (** compute, then evaluate every claim on the result *)
}

val all : entry list
val find : string -> entry option

val run_all : ?quick:bool -> unit -> bool
(** Run every entry under a header naming its id, title and claims;
    [true] when every claim of every entry holds. *)
