(** Replayable choice sequences — the explorer's source of controlled
    nondeterminism.

    Every nondeterministic decision in an explored run (same-timestamp
    event permutation, control-channel delivery fate, crash/restart
    injection) funnels through {!next}. The first choices replay a
    {e forced prefix}; past the prefix every decision defaults to [0]
    (the production behavior: insertion order, deliver, no fault).
    Every decision — forced or defaulted — is recorded with its arity,
    so the run's complete schedule is a printable, replayable artifact:
    re-running with [forced = chosen t] reproduces it exactly. *)

type t

val create : ?forced:int array -> unit -> t

val next : t -> arity:int -> int
(** Take the next decision among [0 .. arity-1]. Out-of-range forced
    values fall back to [0]. *)

val length : t -> int
(** Choice points consumed so far. *)

val log : t -> (int * int) list
(** Every [(chosen, arity)] pair, in decision order. *)

val chosen : t -> int array
(** Just the chosen values — feed back as [forced] to replay the run. *)

val to_string : int array -> string
(** Comma-separated ints, e.g. ["0,2,0,1"] — the printable artifact. *)

val of_string : string -> int array
(** Inverse of {!to_string}. @raise Invalid_argument on junk. *)

