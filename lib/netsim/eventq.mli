(** Calendar-queue event queue for the discrete-event engine: a bucketed
    timing wheel over preallocated arena storage, spilling far-future
    events to a binary heap. Steady-state [push]/[pop] allocates nothing —
    entries live in parallel arrays threaded through an intrusive free
    list, and the arena only grows when more events are simultaneously
    pending than ever before (see DESIGN.md §13 for the layout).

    {2 Window rule}

    The wheel's window never moves past the slot of the last event taken
    ([pop] or [pop_nth]): [peek_time] and [push] leave it where it is, and
    a take that finds the wheel drained re-anchors it at the event taken
    ([ready_count], which the engine calls only just before [pop_nth],
    re-anchors the same way).
    A push at or after the last taken time — every push the engine makes,
    since it never schedules before its clock — therefore never lands
    below the window. A push earlier than that, legal for a standalone
    queue, re-homes the whole wheel (O(wheel slots)); {!rebases} counts
    these.

    {2 Tie-breaking contract (stable public API)}

    Events with equal timestamps fire in {b insertion order}: every [push]
    stamps the entry with a monotonically increasing sequence number, and
    ordering is lexicographic on [(time, seq)] — including across the
    wheel/heap spill boundary. This is a documented, tested contract —
    deterministic replay, the trace-determinism CI gate, and the
    {!Scallop_mc} explorer's permutation choice points all depend on it.
    [pop t] is always equivalent to [pop_nth t 0]. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> time:int -> 'a -> unit
(** [time] is an absolute timestamp in nanoseconds. *)

val pop : 'a t -> (int * 'a) option
(** Removes and returns the earliest event; ties broken by insertion
    order (see the tie-breaking contract above). *)

val peek_time : 'a t -> int option
(** Time of the earliest event, without moving the window. *)

val rebases : 'a t -> int
(** Number of pushes that landed below the window and re-homed the wheel
    (see the window rule above); stays [0] under engine push orders. *)

val ready_count : 'a t -> int
(** Number of events tied at the minimum timestamp — the size of the
    "ready set" an explorer may permute. [0] iff the queue is empty.
    O(ready): equal-time events share one sorted wheel bucket, so the
    tied run is counted without scanning the rest of the queue. *)

val pop_nth : 'a t -> int -> (int * 'a) option
(** [pop_nth t k] removes and returns the [k]-th event (0-based, in
    insertion order) among those tied at the minimum timestamp. [None] if
    the queue is empty or [k >= ready_count t]. [pop_nth t 0] behaves
    exactly like [pop]. O(ready). *)
