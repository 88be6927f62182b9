(** Process-wide metrics registry: named counters, gauges and log-bucketed
    histograms with a Prometheus-style text dump and a JSON export.

    Hot-path discipline: a handle returned by {!counter} / {!gauge} /
    {!histogram} is a plain mutable record the caller keeps; {!incr},
    {!add} and {!set} are O(1) field mutations with zero allocation. The
    registry is only consulted at registration and dump time, never on
    the update path.

    Registration has {e replace} semantics: registering a (name, labels)
    pair that already exists installs a fresh zeroed handle and detaches
    the previous one (its holder can keep mutating it; dumps show the new
    instance). Components that are created per simulated world — data
    planes, PRE instances, RPC clients — therefore own their metrics
    without cross-world aggregation: the dump always reflects the most
    recently created instance under each name. *)

type counter
type gauge

val counter : ?labels:(string * string) list -> ?help:string -> string -> counter
(** Register (or replace) a counter starting at 0. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val gauge : ?labels:(string * string) list -> ?help:string -> string -> gauge
val set : gauge -> float -> unit

val histogram :
  ?labels:(string * string) list ->
  ?help:string ->
  ?bounds:float array ->
  string ->
  Scallop_util.Stats.Histogram.t
(** Register (or replace) a {!Scallop_util.Stats.Histogram}; observe on
    the returned handle directly. *)

val register_callback :
  ?labels:(string * string) list -> ?help:string -> string -> (unit -> float) -> unit
(** A gauge whose value is polled at dump time — for quantities another
    data structure already maintains (cache residency, table occupancy). *)

val read : ?labels:(string * string) list -> string -> int
(** The current value of the counter or callback series registered under
    [name] and [labels] — the read surface for every registry-backed
    count. Under replace semantics that is the most recently registered
    instance: read a world's counts before building another under the
    same labels. Raises [Invalid_argument] when no counter or callback
    series matches, so a misspelt name fails instead of reading 0. *)

val register_histogram :
  ?labels:(string * string) list ->
  ?help:string ->
  string ->
  Scallop_util.Stats.Histogram.t ->
  unit
(** Register a histogram handle the caller already owns and keeps
    observing into — unlike {!histogram}, which mints a fresh zeroed one. *)

type sample = Value of float | Distribution of Scallop_util.Stats.Histogram.t

val register_family :
  help:string -> string -> (unit -> ((string * string) list * sample) list) -> unit
(** [register_family name samples]: the series of [name] are whatever
    [samples ()] returns when a dump runs, one per label set — for a
    family whose members another module already keeps in its own table,
    so a member costs the registry nothing until it is dumped. A [Value]
    dumps as a gauge. The family owns [name]: register no entry under
    it. Re-registering replaces the family; {!reset} leaves families in
    place (their owner's table decides what they dump). *)

val dump : unit -> string
(** Prometheus text exposition format, entries sorted by name then
    labels — deterministic for a deterministic run. *)

val dump_json : unit -> string
(** One JSON object keyed by [name{labels}]; histograms expand to
    [{count, sum, p50, p99, buckets}] where [buckets] is the cumulative
    [["le", count], ...] list (only non-empty cumulative buckets; ["+Inf"]
    for the overflow bound). *)

val reset : unit -> unit
(** Drop every registered entry (tests / fresh worlds). Existing handles
    keep working but are no longer dumped. *)
