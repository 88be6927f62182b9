(** The explorer's system-under-test: one fully instrumented Scallop
    stack run under a replayable choice sequence.

    The workload mirrors the failover suite's harness — a 3-party
    meeting (2 senders) on a single batched switch, two quality pins and
    a late join at fixed virtual times — because that is the smallest
    workload known to exercise every control-plane path (batch flush,
    skip, resync). Nondeterminism is injected at three kinds of
    choice point, all funneled through one {!Choice.t}:

    - {b faults}: a crash/restart/nothing decision on a fixed grid of
      virtual times inside the active window (all slots are decided up
      front, so these occupy the first choice-sequence positions and
      fault-only counterexamples stay shallow);
    - {b channel}: a deliver/delay/drop decision per control-channel
      datagram delivery (via {!Netsim.Control_channel.set_interposer});
    - {b ties}: a same-timestamp permutation decision whenever >= 2
      engine events are ready (via {!Netsim.Engine.set_chooser}).

    Outside the window every decision defaults to production behavior,
    keeping choice sequences short and the search focused on the
    crash/heal region. *)

type config = {
  sc_seed : int;  (** simulation seed (default 11, the failover suite's) *)
  sc_mutations : Scallop.Mutation.t list;
      (** seeded defects to enable for this run *)
  sc_ties : bool;  (** same-timestamp permutation choice points *)
  sc_channel : bool;  (** control-delivery fate choice points *)
  sc_faults : bool;  (** crash/restart grid choice points *)
  sc_window_ms : int * int;  (** active choice window, virtual ms *)
  sc_fault_every_ms : int;  (** fault-grid spacing *)
  sc_horizon_s : float;  (** run length, virtual seconds *)
  sc_cluster : bool;
      (** run the controller tier as the fault-tolerant primary/standby
          pair ({!Scallop.Cluster}). The fault grid gains two {e
          controller} slots decided before everything else (0 = nothing,
          1 = kill the acting primary, 2 = force-promote the standby — a
          false-positive failure detection); workload ops follow
          {!Scallop.Cluster.endpoint} and retry, order preserved, when a
          failover catches them mid-flight; the end-state check adds
          {!Scallop_analysis.check_cluster} (single acting primary,
          journal-replay fidelity). Default false — single-controller
          runs are byte-identical to before the cluster existed. *)
}

val default : config

type outcome = {
  o_violations : Temporal.violation list;  (** temporal-rule violations *)
  o_findings : Scallop_analysis.finding list;
      (** end-state verifier findings ({!Scallop_analysis.verify}, plus
          the cluster invariants in cluster mode) *)
  o_state_hash : int;  (** {!Scallop_analysis.state_hash} of the end state *)
  o_log : (int * int) list;  (** full (chosen, arity) decision log *)
  o_chosen : int array;  (** replay this via [~forced] to reproduce *)
  o_events : int;  (** trace events the checker saw *)
  o_now : int;  (** final virtual time, ns *)
}

val failed : outcome -> bool
(** Temporal violations or [Error]-severity end-state findings. *)

val run :
  ?config:config ->
  ?on_event:(Scallop_obs.Trace.event -> unit) ->
  forced:int array ->
  unit ->
  outcome
(** Execute one schedule. Deterministic: equal [config] and [forced]
    produce equal outcomes (including [o_chosen]). Saves and restores
    the global trace level, listener and mutation switches; resets the
    trace buffer. [on_event] taps the live event stream ahead of the
    checker — useful for dumping a counterexample's full timeline. *)
