val used : int -> int
val via_alias : int
val unused : int -> int
