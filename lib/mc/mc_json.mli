(** Minimal JSON emission for machine-readable findings — shared by
    [scallop_cli check --json] and [scallop_cli explore]. Strings are
    escaped per RFC 8259; output is single-line and byte-deterministic
    for identical inputs (field order is fixed). *)

val str : string -> string
(** JSON string literal with escaping. *)

val int : int -> string
val bool : bool -> string
val obj : (string * string) list -> string
(** Keys are escaped; values must already be JSON. *)

val arr : string list -> string

val finding : Scallop_analysis.finding -> string

val outcome : Scenario.outcome -> string
(** One explored schedule: violations, findings, the replayable choice
    string, state hash. *)

val explore_report : Explore.result -> string
(** Search result: the counterexample (or null) plus search stats. *)
