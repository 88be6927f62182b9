(** A paper claim as data: the figure or table, what is measured, the
    paper's value as text, a measurement over an experiment's result
    record, and the accepted range. Each experiment declares its claims
    once; [run] prints them, [scallop_cli list] shows them, and tier-1
    fails on any claim outside its range. *)

type 'r t

val float :
  ?decimals:int -> ?gt:float -> ?ge:float -> ?lt:float -> ?le:float -> ?eq:float ->
  string -> string -> paper:string -> ('r -> float) -> 'r t
(** [float figure what ~paper measure] accepts a value [> gt], [>= ge],
    [< lt], [<= le], [= eq], for each bound given (at least one). NaN is
    outside every range. [decimals] (default 2) formats the value. *)

val int :
  ?gt:int -> ?ge:int -> ?lt:int -> ?le:int -> ?eq:int ->
  string -> string -> paper:string -> ('r -> int) -> 'r t

val holds : string -> string -> paper:string -> ('r -> bool) -> 'r t
(** A claim that must be [true]. *)

val describe : 'r t -> string
(** ["<what>: <paper>"] *)

type row = { figure : string; what : string; paper : string; measured : string;
             range : string; ok : bool }

val check : 'r t list -> 'r -> row list

val line : row -> string
(** ["ok   [Fig 15] min gain = 6.83, range (5, 10); paper: 7x"], [FAIL]
    in place of [ok] outside the range. *)

val print : row list -> bool
(** Each row's {!line}, then a blank line; [true] when every row is
    [ok]. [scallop_cli run] exits 1 on [false]. *)
