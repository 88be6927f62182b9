(** Temporal protocol checker: safety/liveness rules evaluated online
    over the {!Scallop_obs.Trace} event stream.

    Rules are plain data — a per-event step function and an end-of-run
    finalizer — built from the [always] / [eventually] / [precedes]
    combinators (or [make] for custom stateful automata). The combinators'
    [name] is the [v_rule] of the violations they report; a custom rule
    names its own. A {!checker} taps the trace via
    {!Scallop_obs.Trace.set_listener}, so evaluation is immune to ring
    wraparound and adds no cost when tracing is off.

    Violations carry the rule name, a concrete detail string, the virtual
    timestamp, and the indices of the culpable events in the run's event
    stream (0-based, in emission order) — enough to pinpoint the failure
    inside a replayed schedule. *)

module Trace = Scallop_obs.Trace

type violation = {
  v_rule : string;
  v_detail : string;
  v_ts : int;  (** virtual ns at which the violation was detected *)
  v_events : int list;  (** culpable event indices in emission order *)
}

val pp_violation : Format.formatter -> violation -> unit

type rule

val make :
  step:(idx:int -> Trace.event -> violation list) ->
  final:(now:int -> violation list) ->
  rule
(** A custom stateful rule. [step] sees every event with its stream
    index; [final] runs once at end of run with the final virtual time.
    Rules carry mutable closure state — build a fresh list per run
    (see {!Rules.all}). *)

val always :
  name:string ->
  (idx:int -> Trace.event -> string option) ->
  rule
(** Safety: the predicate must never return [Some detail]. *)

val eventually :
  name:string ->
  trigger:(Trace.event -> string option) ->
  satisfy:(Trace.event -> string option) ->
  rule
(** Liveness: every [trigger] key must be closed by a later [satisfy] of
    the same key before the run ends. Re-triggering a key refreshes its
    obligation; satisfying an unopened key is a no-op. *)

val precedes :
  name:string ->
  first:(Trace.event -> string option) ->
  then_:(Trace.event -> string option) ->
  rule
(** Ordering: an event matching [then_] with key [k] requires an earlier
    event matching [first] with the same key. An event may match both;
    its own [first] does not enable its own [then_]. *)

(** {1 Event accessors} *)

val is : Trace.event -> string -> bool
val arg_i : Trace.event -> string -> int option

val arg_s : Trace.event -> string -> string option
(** Integer args are stringified rather than dropped. *)

(** {1 Checker engine} *)

type checker

val create : rule list -> checker
(** Stores at most 256 step-violations, so a badly broken run cannot
    accumulate unbounded reports. *)

val feed : checker -> Trace.event -> unit

val attach : checker -> unit
(** Install as the global trace listener ({!Trace.set_listener}). *)

val detach : unit -> unit
(** Clear the global trace listener. *)

val events_seen : checker -> int

val finish : ?now:int -> checker -> violation list
(** Step violations plus every rule's finalizer output. Does not detach;
    callers typically [detach] right before. *)
