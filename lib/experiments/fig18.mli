(** Fig. 18 — retransmission overhead of sequence-number rewriting.

    A long SVC stream is rate-adapted to 15 fps (T2 frames suppressed at
    the SFU) while its uplink suffers iid loss and reordering. The
    surviving packets pass through a rewriting heuristic (S-LR or S-LM)
    and, in parallel, through an oracle that knows exactly which packets
    were suppressed. The receiver NACKs every sequence gap it sees; the
    overhead is the fraction of forwarded packets whose gaps were
    {e artificial} — NACKed only because the heuristic failed to mask an
    intentional gap ([claims] holds the paper's bounds).

    The experiment also verifies the invariant the paper treats as
    non-negotiable: the heuristic never emits a duplicate sequence
    number. *)

type point = {
  loss : float;
  overhead_slr : float;
  overhead_slm : float;
  overhead_slr_bursty : float;
      (** same average loss but Gilbert-Elliott bursts (mean burst ~5
          packets) — the "high loss" regime the paper designs S-LR for *)
  duplicates : int;  (** across all heuristic runs; must be 0 *)
}

type result = { points : point list }

val compute : ?quick:bool -> unit -> result
val claims : result Claim.t list
val print : result -> unit
