(** Closed-form capacity model of a software SFU server (DESIGN.md §4).

    Calibration: the paper reports that a 32-core commodity server supports
    192 ten-party all-senders meetings and 4.8K two-party meetings. Both
    anchor to one constant — 38,400 concurrently terminated stream legs —
    because a split proxy terminates every uplink and downlink leg of every
    media type. *)

val stream_legs : participants:int -> senders:int -> media_types:int -> int
(** Terminated legs for one meeting: each sender has [media_types] uplink
    legs plus [media_types * (participants - 1)] downlink legs. *)

val meetings_supported :
  ?cores:int -> participants:int -> senders:int -> media_types:int -> unit -> int
(** Concurrent meetings a [cores]-core server (default 32) sustains. *)

