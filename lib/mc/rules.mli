(** The control-plane protocol contract, shipped as data.

    Eleven temporal rules over the {!Scallop_obs.Trace} event stream (trace
    level [Rpc] or higher must be active for the events to exist):

    - {b exactly-once-wire} — no (client, seq) executes twice with
      [replayed=false] within one agent epoch.
    - {b exactly-once-effect} — on any agent, a participant is never
      appended to a meeting's member list twice (the heal-race
      signature).
    - {b epoch-monotone} — pong-observed epochs never regress; restarts
      strictly increase the epoch.
    - {b no-exec-while-crashed} — a crashed agent executes nothing until
      it restarts.
    - {b batch-order} — batched ops run in submission order, each exactly
      once, per-op errors isolated.
    - {b skipped-ops-healed} — a switch that missed ops (their wire side
      was skipped) must not end the run healthy without a complete
      resync after its last skip.
    - {b hb-liveness} — heartbeat ticks keep firing while monitoring runs.
    - {b replay-identical} — cache-served replies are byte-identical to
      the original (digest compare).
    - {b quiet-heal} — no heal begins while a call is in flight on the
      channel.
    - {b fence-monotone} — controller activations mint strictly
      increasing fencing epochs.
    - {b no-deposed-exec} — an agent never executes an op fenced under
      an epoch below one it already accepted.

    Each call builds fresh rule instances (they carry per-run mutable
    state) — never share a list across runs. *)

val all : unit -> Temporal.rule list
(** Fresh instances of the full catalogue, in the order above. *)
