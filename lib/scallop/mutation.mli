(** Test-only protocol mutations.

    Each switch seeds one deliberate protocol bug into the control plane,
    so the {!Scallop_mc} explorer's mutation gate can prove its temporal
    rules have teeth: with a mutation enabled, bounded exploration must
    find a violating schedule within the CI budget.

    All switches default to off, in which case every consulting site
    behaves exactly as production code. Nothing outside tests and the
    [explore --mutate] CLI path may enable one. *)

type t =
  | Heal_without_quiesce
      (** revert the heal-race fix: {!Controller}'s pong handler heals
          even while a blocking call is in flight on the channel *)
  | Corrupt_replay
      (** {!Rpc_transport.Server} answers replayed requests with a fresh
          [Error] instead of the cached reply *)
  | Reverse_batch
      (** {!Switch_agent} executes [Batch] ops in reverse order *)
  | Exec_while_offline
      (** {!Rpc_transport.Server} keeps executing requests while the
          agent process is crashed *)
  | Skip_fencing_check
      (** {!Journal} accepts appends under a stale fence and
          {!Switch_agent} executes stale-fenced requests — a deposed
          primary can double-execute (split-brain) *)

val all : t list
val name : t -> string
val enable : t -> unit
val disable_all : unit -> unit
val on : t -> bool
