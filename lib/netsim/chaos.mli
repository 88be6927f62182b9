(** Deterministic fault-schedule harness.

    A chaos schedule is plain data: a seed-derived list of faults against
    integer-identified nodes, installed onto the {!Engine} as absolute-time
    callbacks. The module knows nothing about what a node {e is} — the
    caller supplies the [crash] / [restart] / [set_loss] actions (for
    Scallop: {!Switch_agent.crash}, {!Switch_agent.restart}, and setting
    the loss rate of both directions of a switch's control channel) — so
    the same schedule machinery drives any simulated component.

    Everything is deterministic: the same seed yields the same schedule,
    {!install} registers the same virtual-time callbacks, and a
    deterministic engine replays the identical run — which is what lets
    CI diff two executions byte for byte. *)

type fault =
  | Crash_restart of { node : int; at_ns : int; down_ns : int }
      (** power-cycle: down at [at_ns], fresh boot at [at_ns + down_ns] *)
  | Partition of { node : int; from_ns : int; until_ns : int }
      (** the node's control channel drops everything in [\[from, until)];
          the node itself stays up *)
  | Control_loss of { node : int; from_ns : int; until_ns : int; loss : float }
      (** degraded (not severed) control channel: iid loss at [loss] *)

type schedule = fault list

val horizon_end : schedule -> int
(** Latest fault end (restart or heal time) — the earliest moment the whole system is
    fault-free again (0 for an empty schedule). *)

val describe : schedule -> string
(** One fault per line, in schedule order — stable across runs of the
    same seed, for golden output. *)

val generate :
  Scallop_util.Rng.t ->
  nodes:int ->
  horizon_ns:int ->
  ?crashes:int ->
  ?partitions:int ->
  ?loss_bursts:int ->
  ?loss:float ->
  ?disjoint:bool ->
  unit ->
  schedule
(** Draw a schedule: [crashes] crash/restart cycles (default 1),
    [partitions] full control partitions (default 1) and [loss_bursts]
    degraded-channel bursts at rate [loss] (defaults 0 and 0.3), spread
    over nodes [\[0, nodes)]. Starts land in the middle 60% of
    [horizon_ns] and durations stay under ~30% of it, so every fault
    heals with simulated time left to recover. [disjoint] (default
    false) gives each fault its own horizon slot instead, guaranteeing
    faults never overlap — each repair path exercised in isolation.
    Sorted by start time. *)

val shift : int -> schedule -> schedule
(** Displace every fault by the given delta — anchors a generated
    schedule at the engine's current virtual time when scenario setup
    (e.g. signaling over a lossy control channel) already consumed some
    of the clock. *)

val install :
  Engine.t ->
  schedule ->
  crash:(int -> unit) ->
  restart:(int -> unit) ->
  set_loss:(int -> float -> unit) ->
  unit
(** Register every fault as absolute-time engine callbacks. Faults whose
    times are already in the past raise (install before running). *)
