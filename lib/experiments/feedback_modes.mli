(** §5.2 design-choice quantification: receiver-driven REMB vs
    sender-driven TWCC feedback.

    The paper adopts REMB because its frequency tracks link-capacity
    changes, while TWCC emits one feedback packet per 10–20 media packets
    — far too much load for the switch CPU. This experiment runs the same
    three-party meeting under both modes and measures what actually
    reaches the switch agent. *)

type result = {
  remb_cpu_pps : float;  (** CPU-port packets/s at the agent, REMB mode *)
  twcc_cpu_pps : float;
  remb_cpu_kbps : float;
  twcc_cpu_kbps : float;
  load_ratio : float;  (** twcc / remb in packets *)
}

val compute : ?quick:bool -> unit -> result
val claims : result Claim.t list
val print : result -> unit
