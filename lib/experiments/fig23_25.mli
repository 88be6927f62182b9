(** Figs. 23–25 (Appendix D) — how SVC layer dropping shows up on the wire.

    One sender and two receivers: the SFU reduces receiver A's quality
    mid-run and receiver B's later, mirroring the Zoom trace example.

    - Fig. 23: bytes forwarded to each receiver over time (two distinct
      step-downs);
    - Fig. 24: receiver A's bytes broken down by SVC template id — the
      reduction removes exactly the enhancement-layer templates;
    - Fig. 25: the frame-level schematic: which frames of a 16-frame
      window survive at each decode target. *)

type slice = {
  t_s : float;
  to_a_kbps : float;
  to_b_kbps : float;
  a_by_template : float array;  (** kb/s per template id 0..4 at receiver A *)
}

type result = {
  series : slice list;
  a_enhancement_share_before : float;
  a_enhancement_share_after : float;
}

val compute : ?quick:bool -> unit -> result
val claims : result Claim.t list
val print : result -> unit
