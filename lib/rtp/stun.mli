(** STUN (RFC 5389) binding requests/responses — the periodic connectivity
    checks WebRTC runs (paper §5.1). Scallop answers these in the switch
    agent rather than the data plane, so only binding request/success with
    the attributes ICE actually uses are modelled. *)

type attribute =
  | Username of string
  | Priority of int
  | Ice_controlling of int64
  | Ice_controlled of int64
  | Use_candidate
  | Xor_mapped_address of { ip : int; port : int }  (** ip is IPv4 as 32-bit int. *)
  | Unknown of int * bytes

type message_class = Request | Success_response | Error_response | Indication

type t = {
  cls : message_class;
  method_ : int;  (** 0x001 = Binding. *)
  transaction_id : bytes;  (** Exactly 12 bytes. *)
  attributes : attribute list;
}

val binding_request :
  ?username:string -> ?priority:int -> transaction_id:bytes -> unit -> t

val binding_success :
  transaction_id:bytes -> mapped_ip:int -> mapped_port:int -> t

val serialize : t -> bytes
val parse : bytes -> t

val is_stun : bytes -> bool
(** Cheap check on the first two bits + magic cookie, usable as the data
    plane's lookahead classification. *)

val equal : t -> t -> bool
