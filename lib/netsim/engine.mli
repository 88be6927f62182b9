(** Discrete-event simulation engine.

    Time is an [int] count of nanoseconds since simulation start. All
    simulated components (links, endpoints, SFUs, switches) schedule
    callbacks here; running the engine advances the virtual clock to each
    event in order. *)

type t

val create : unit -> t
(** A fresh engine at time 0. It becomes the owner of the tracer's clock
    and of the [scallop_eventq_rebases] registry entry, its queue's
    {!Eventq.rebases} count. *)

val now : t -> int
(** Current virtual time in nanoseconds. *)

val schedule : t -> after:int -> (unit -> unit) -> unit
(** [schedule t ~after f] runs [f] at [now t + after]. [after >= 0]. *)

val at : t -> time:int -> (unit -> unit) -> unit
(** Absolute-time variant. [time] must not be in the past. *)

val every : t -> ?start:int -> interval:int -> (unit -> bool) -> unit
(** [every t ~interval f] runs [f] at [start] (default [now + interval])
    and then every [interval] ns for as long as [f] returns [true]. *)

val run : ?until:int -> t -> unit
(** Processes events in time order. Stops when the queue is empty or
    when virtual time would exceed [until]. The clock is advanced to
    [until] if given. *)

val step : ?until:int -> t -> bool
(** Process the single earliest event, advancing the clock to it; [false]
    if the queue is empty or the next event lies beyond [until]. Lets a
    component block on a simulated round trip (e.g. a control-plane RPC)
    by pumping events until its reply lands, without running past it. *)

val pending : t -> int

val set_chooser : t -> (ready:int -> int) option -> unit
(** Install (or clear) a same-timestamp scheduling chooser. When several
    events are tied at the minimum timestamp, [choose ~ready:n] picks which
    of the [n] tied events (0-based, insertion order) fires next; out-of-
    range answers fall back to [0]. With no chooser — the default — ties
    fire in insertion order, which is the engine's documented deterministic
    behavior. Used by {!Scallop_mc} to turn the scheduler into an explicit
    choice point. *)

(* Time unit helpers — readable literals for callers. *)
val us : int -> int
val ms : int -> int
val sec : float -> int
