(** Hardware-amenable sequence-number rewriting (paper §6.2, Fig. 12).

    When Scallop's data plane suppresses SVC layers, the surviving packets
    have gaps in their RTP sequence numbers; receivers would read those
    gaps as network loss and request retransmissions. The egress pipeline
    therefore rewrites sequence numbers to mask {e intentional} gaps. A
    perfect rewrite is impossible when suppression coincides with loss and
    reordering, so the paper designs heuristics whose mistakes are
    deliberately biased: {b a sequence number is never emitted twice}
    (duplicates permanently corrupt the decoder), at the cost of
    occasionally leaving a gap that triggers a spurious retransmission.

    Two variants are modelled, matching the paper:

    - {b S-LM} (low memory): 3 state words per stream — highest input
      sequence, highest frame number, current offset. Gaps whose
      intervening frames are all suppressed by the cadence are masked;
      reordered packets are tolerated only one step back; anything older
      is dropped.
    - {b S-LR} (low retransmission): 3 extra words — first/highest
      sequence of the latest frame and whether it ended — allowing
      arbitrary reordering within the current frame, silent dropping of
      late packets from suppressed frames, and smarter handling of gaps
      that mix suppression with loss.

    State words are kept in {!Tofino.Register} arrays by the data plane;
    this module implements the per-packet logic over that state. *)

type variant = S_LM | S_LR

val words_per_stream : variant -> int
(** Register cells consumed per rate-adapted stream: 3 for S-LM, 6 for
    S-LR — the memory-vs-overhead trade-off of Figs. 15 and 17. *)

type t

val create : variant -> target:Av1.Dd.decode_target -> t
val set_target : t -> Av1.Dd.decode_target -> unit
(** The control plane's frame-skip cadence for this stream (which frames
    of the L1T3 cycle are suppressed). *)

val on_packet :
  t -> seq:int -> frame:int -> start_of_frame:bool -> end_of_frame:bool -> int
(** Process one {e surviving} packet (suppressed packets never reach the
    egress rewrite stage). [seq] and [frame] are the original 16-bit
    values; the frame-boundary flags come from the AV1 dependency
    descriptor the parser already extracted. Returns the rewritten 16-bit
    sequence number to emit, or [-1] to suppress the packet silently
    (never risk a duplicate). Allocates nothing: it runs per replica. *)

val suppressed_by_cadence : Av1.Dd.decode_target -> int -> bool
(** [suppressed_by_cadence target frame] — does the cadence drop this
    frame number? (L1T3 cycle position = [frame mod 4].) *)

val offset : t -> int
(** Current sequence offset (diagnostics). *)

(** Ideal rewriter used as the Fig. 18 baseline: told exactly which
    packets were suppressed, it computes the gap-free output an oracle
    would produce. *)
module Oracle : sig
  type t

  val create : unit -> t

  val note_suppressed : t -> int -> unit
  (** [note_suppressed t seq] — called once per intentionally suppressed
      packet, in stream order, with an {e unwrapped} sequence number. *)

  val on_packet : t -> seq:int -> int
  (** Exact rewritten (unwrapped) sequence number for a surviving packet. *)
end
