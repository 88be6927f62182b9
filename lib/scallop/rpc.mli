(** The control-plane API between the controller (tier 1) and a switch
    agent (tier 2) as a first-class message vocabulary (paper §5).

    Each constructor of {!request} mirrors one {!Switch_agent} session
    operation; a request travels inside a sequence-numbered envelope
    ({!message}) over a simulated control link (see {!Rpc_transport}),
    so control-plane latency, loss and failure are visible to
    experiments instead of being a counted-but-free function call. *)

type request =
  | New_meeting of { two_party : bool }
  | Register_participant of {
      meeting : int;
      participant : int;
      egress_port : int;
      sends : bool;
    }
  | Register_uplink of {
      meeting : int;
      sender : int;
      port : int;
      video_ssrc : int;
      audio_ssrc : int;
      full_bitrate : int;
      renditions : (int * int) array;  (** simulcast (ssrc, bitrate), best first *)
    }
  | Register_leg of {
      meeting : int;
      sender : int;
      uplink_port : int option;
      receiver : int;
      leg_port : int;
      dst : Scallop_util.Addr.t;
      adaptive : bool;
    }
  | Remove_participant of { meeting : int; participant : int }
  | Unregister_uplink of { meeting : int; port : int }
  | Set_pair_target of {
      meeting : int;
      sender : int;
      receiver : int;
      target : Av1.Dd.decode_target;
    }
  | Ping
      (** controller heartbeat; answered with {!Pong} carrying the
          agent's restart epoch so the controller can tell a healed
          partition (same epoch, state intact) from a fresh restart
          (bumped epoch, state lost) *)
  | Reset
      (** wipe every meeting, stream and leg on the agent and its data
          plane — the first step of a full resync, making intent replay
          convergent from any drifted state *)
  | Batch of request list
      (** an ordered list of operations shipped under a single sequence
          number and executed in list order; answered by {!Batch_reply}
          with one reply per op in the same order. Because the whole
          batch shares one seq, the agent's reply cache makes batch
          replay idempotent exactly like a single op: a retransmitted
          batch replays the cached reply list without re-executing any
          member. Nesting is permitted by the codec but the controller
          never sends it. *)
  | Fenced of { fence : int; op : request }
      (** [op] carried under a fencing epoch: the agent executes it only
          if [fence] is at least the highest fence it has ever observed,
          and answers {!Stale_fence} otherwise — how a deposed primary's
          in-flight or retransmitted ops are kept from double-executing
          after a failover (split-brain prevention, paper-adjacent
          carrier-grade control-plane requirement) *)

type reply =
  | Meeting_created of { meeting : int }  (** answers [New_meeting] *)
  | Ack
  | Pong of { epoch : int }  (** answers [Ping] *)
  | Error of string
      (** the agent rejected the request (e.g. unknown meeting); carried
          back as data, not an exception, so it survives the wire *)
  | Batch_reply of reply list
      (** answers [Batch]: the i-th element answers the i-th op; a
          failed op contributes its [Error] in place while later ops
          still execute (partial failure is per-op, never all-or-nothing) *)
  | Stale_fence of { fence : int }
      (** the agent refused a {!Fenced} request because it has already
          seen a higher fence ([fence] is the agent's current one); the
          sender is deposed and must stop acting as primary *)

type message =
  | Request of { seq : int; request : request }
  | Reply of { seq : int; reply : reply }
      (** a reply echoes its request's [seq]; retransmitted requests
          reuse their original [seq], which is what lets the agent
          replay cached replies instead of re-executing (at-most-once
          execution under at-least-once delivery) *)

val request_name : request -> string

val encode : message -> bytes
(** Space-separated textual wire format (inspectable, honestly sized).
    Batch members are framed recursively with token-count prefixes, so
    sub-messages whose fields contain spaces (an [Error] text) still
    round-trip exactly. Its bytes are fixed: [test_rpc] pins them. *)

val decode : bytes -> message
(** [decode (encode m) = m].
    @raise Rtp.Wire.Parse_error on malformed input, and nothing else. *)
