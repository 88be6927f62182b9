(** Ablation studies for the two design choices the paper argues hardest
    for — run each mechanism with its Scallop treatment and with the naive
    alternative, on otherwise identical scenarios.

    {b Feedback filter (§5.3, Fig. 8).} Scallop forwards only the
    best-performing downlink's REMB to each sender. The naive alternative
    forwards every receiver's REMB; the sender then converges to the
    lowest-bandwidth receiver, destroying quality for everyone else —
    exactly the mixed-feedback failure the paper illustrates.

    {b Sequence rewriting (§6.2, Fig. 12).} Scallop masks intentional
    gaps with the S-LM/S-LR heuristics. The naive alternative forwards
    rate-adapted streams with raw gaps; receivers read them as loss and
    generate continuous retransmission requests for packets that never
    existed. *)

type filter_result = {
  sender_bitrate_filtered : int;  (** sender's encode rate with the filter *)
  sender_bitrate_naive : int;  (** ... and with naive REMB forwarding *)
  fast_receiver_kbps_filtered : float;
      (** unconstrained receiver's receive rate with the filter *)
  fast_receiver_kbps_naive : float;
}


type rewrite_result = {
  nacks_with_rewrite : int;  (** NACKed sequence numbers at the reduced receiver *)
  nacks_without_rewrite : int;
  fps_with_rewrite : float;
  fps_without_rewrite : float;
}

type result = { filter : filter_result; rewrite : rewrite_result }

val compute : ?quick:bool -> unit -> result
val claims : result Claim.t list

val print : result -> unit
(** Print both ablations as tables. *)
