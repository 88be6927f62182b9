(** Closed-form capacity model of the Scallop switch — the basis of the
    paper's scalability results (Figs. 15–17 and the §6.1 headline
    numbers: 128K NRA / 42.7K RA-R / 4.3K RA-SR(10p) / 533K two-party
    meetings).

    For each replication-tree design the supported meeting count is the
    minimum over the hardware bottlenecks:

    - PRE trees (65,536; m = 2 meetings share a tree where the design
      allows);
    - PRE L1 nodes (2^24);
    - switch bandwidth (12.8 Tb/s, charged ingress + egress);
    - Stream-Tracker registers for rate-adapted legs (65,536 streams with
      S-LR's six words, 131,072 with S-LM's three — DESIGN.md §4).

    Calibration constants are in DESIGN.md §4; the shapes (who wins, by
    what factor, where crossovers fall) are the reproduction target, not
    the authors' exact testbed numbers. *)

type params = {
  pre_trees : int;
  pre_l1_nodes : int;
  meetings_per_tree : int;  (** m = 2 *)
  qualities : int;  (** q = 3 *)
  switch_bps : float;  (** 12.8e12 *)
  uplink_bps_per_sender : float;  (** ~3.1 Mb/s video+audio+overhead *)
  tracker_cells : int;  (** 6 x 65,536 register cells *)
  adapted_fraction : float;
      (** fraction of downstream legs under active rate adaptation *)
  leg_table_entries : int;
      (** egress match-action table entries (2^20) — the state that bounds
          the two-party fast path at ~533K meetings *)
}

val default : params
(** The calibration every capacity query uses. *)

type design = Two_party | Nra | Ra_r | Ra_sr

val meetings_supported :
  ?rewrite:Seq_rewrite.variant ->
  design ->
  participants:int ->
  senders:int ->
  unit ->
  int
(** Concurrent meetings of the given shape the switch sustains under the
    given design ([rewrite] matters only for rate-adapted designs;
    default S_LR, the conservative bound). *)

val bottleneck :
  ?rewrite:Seq_rewrite.variant ->
  design ->
  participants:int ->
  senders:int ->
  unit ->
  string * int
(** The binding constraint's name alongside the count. *)

val best_design :
  ?rewrite:Seq_rewrite.variant -> rate_adapted:bool ->
  sender_specific:bool -> participants:int -> senders:int -> unit -> design * int
(** The design the switch agent would pick for this meeting shape and the
    resulting capacity. *)

val gain_over_software :
  ?rewrite:Seq_rewrite.variant -> design ->
  participants:int -> senders:int -> unit -> float
(** Scallop meetings / 32-core-server meetings for the same shape
    (software model from {!Sfu.Capacity}, 2 media types). *)
