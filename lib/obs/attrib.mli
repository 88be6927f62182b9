(** Trace-linked root-cause attribution for QoE burns.

    When an SLO fires ({!Slo.alert}), {!of_alert} walks the deterministic
    trace window backwards from the victim receiver's noted trace ids
    ({!Qoe.note_trace}) to the culpable causal events, grouped by source:
    loss/queue drop bursts on a named {!Netsim.Link}, PRE fan-out-cache
    invalidation storms, controller resync epochs, and RPC retry storms.
    Each surviving group becomes a structured {!finding} naming the
    component, the global trace-event index range (the coordinates of
    {!Trace.events_indexed}), the replayable window, and whether the
    evidence was truncated by ring-buffer wraparound — the same shape
    [Scallop_analysis] findings use, so tooling can treat them uniformly.

    Determinism: the walk is a pure function of the trace buffer and the
    victim's collector, both deterministic for a seed, and the result is
    totally ordered — same seed ⇒ identical findings. *)

type severity = Error | Warning

type cause =
  | Link_loss of { link : string; drops : int; victim_hits : int }
  | Link_queue of { link : string; drops : int; victim_hits : int }
  | Pre_invalidation of { pre : string; flushes : int }
  | Resync of { agent : int; ops : int }
  | Rpc_retries of { client : string; spans : int; attempts : int }

type finding = {
  f_severity : severity;
      (** [Error] = drops on the victim's own access links (packets
          addressed to the victim, identified via {!Qoe.host});
          [Warning] = shared-fate or ambient correlation in the window *)
  f_component : string;  (** "link" | "pre" | "ctrl" | "rpc" *)
  f_kind : string;  (** stable cause tag, e.g. "link_loss" *)
  f_subject : string;  (** the named component, e.g. "down:10.0.1.3" *)
  f_explanation : string;
  f_victim : Qoe.key;
  f_cause : cause;
  f_trace_ids : int list;  (** victim packet trace ids implicated, ascending *)
  f_first_event : int;  (** global trace-event index range of the evidence *)
  f_last_event : int;
  f_from_ns : int;  (** replayable window *)
  f_until_ns : int;
  f_truncated : bool;  (** ring wrapped over part of the window *)
}

val attribute : victim:Qoe.t -> from_ns:int -> until_ns:int -> unit -> finding list
(** Findings for the window, most culpable first (Errors before
    Warnings, then by victim impact). A link needs 3 drops on the
    victim's own access link for [Error] — every drop there is a packet
    addressed to the victim. It surfaces as a [Warning] on 3 shared-fate
    trace-id matches (replicas of packets the victim received, dropped
    towards someone else) or 20 total drops. A PRE needs 10 cache
    flushes and an RPC client 5 retried calls in the window for a
    [Warning]; every resync inside it is one. *)

val of_alert : Slo.alert -> finding list
(** {!attribute} over the alert's long window and victim collector. *)

val render : finding -> string
(** One-line human rendering. *)

val finding_to_json : finding -> string

val finding_of_json : string -> finding option
(** Parses exactly what {!finding_to_json} emits;
    [finding_of_json (finding_to_json f) = Some f] for every finding. *)
