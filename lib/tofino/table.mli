(** Exact-match match-action tables with fixed capacity.

    The Scallop data plane uses these for stream-index allocation, REMB
    forwarding rules and address rewriting (paper §6.2/§6.3). Capacity is
    enforced so experiments hit the same state limits hardware would. *)

type ('k, 'v) t

val create : name:string -> capacity:int -> ('k, 'v) t
val name : ('k, 'v) t -> string
val capacity : ('k, 'v) t -> int
val size : ('k, 'v) t -> int

val insert : ('k, 'v) t -> 'k -> 'v -> (unit, [ `Table_full ]) result
(** Replacing an existing key always succeeds. *)

val lookup : ('k, 'v) t -> 'k -> 'v option
val lookup_or : ('k, 'v) t -> 'k -> default:'v -> 'v
(** [lookup] with the table's default action: [default] on a miss. Unlike
    [lookup], allocates nothing — for per-packet lookups. *)

val remove : ('k, 'v) t -> 'k -> unit
val clear : ('k, 'v) t -> unit
val iter : ('k, 'v) t -> ('k -> 'v -> unit) -> unit

val fold : ('k, 'v) t -> ('k -> 'v -> 'acc -> 'acc) -> 'acc -> 'acc
(** Fold over every entry, in an unspecified order — the snapshot
    layer's read-only view of programmed table state. *)

val utilization : ('k, 'v) t -> float
