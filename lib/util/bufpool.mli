(** Size-classed [Bytes] buffer pools with explicit checkout/release.

    The software model of a forwarding pipeline that never allocates: the
    data plane checks a replica buffer out of the pool, patches it in
    place, and whoever terminates the packet's life (link drop, network
    undeliverable, post-delivery decode) releases it back. In steady
    state every checkout is served from a free list and the packet path
    allocates nothing.

    {2 Size classes}

    A class is one exact buffer length: media streams use a small set of
    packet sizes, so exact-length classes recycle perfectly without the
    length slack a rounded size class would add ([Bytes.length] must stay
    the wire truth — receivers decode it and links charge for it).
    Classes are created on demand and each keeps a stack of parked
    buffers, capped at [max_class_depth] (release beyond the cap lets the
    GC take the buffer instead of parking it forever).

    {2 Debug mode}

    With debug on, every release {e poisons} the buffer (fills it with
    {!poison_byte}) so any reader still aliasing it sees garbage — the
    Paranoid byte-differential then fails loudly instead of silently
    forwarding recycled bytes — and releasing a buffer that is already
    parked raises {!Double_release}. *)

type t

type stats = {
  live : int;  (** buffers checked out right now *)
  high_water : int;  (** maximum simultaneous [live] ever observed *)
  recycled : int;  (** checkouts served from a free list *)
  fresh : int;  (** checkouts that had to allocate *)
  released : int;  (** successful releases (parked or dropped) *)
  dropped : int;  (** releases discarded because the class was full *)
  classes : int;  (** distinct buffer lengths seen *)
  parked_bytes : int;  (** bytes currently sitting in free lists *)
}

exception Double_release of int
(** Raised (debug mode only) when releasing a buffer that is already
    parked in its free list; carries the buffer length. *)

val poison_byte : char
(** ['\xde'] — the fill value debug-mode releases stamp over the buffer. *)

val create : ?debug:bool -> ?max_class_depth:int -> unit -> t
(** Defaults: [debug:false], [max_class_depth:1024] parked buffers per
    class. *)

val set_debug : t -> bool -> unit

val checkout : t -> int -> bytes
(** [checkout t len] returns a buffer of exactly [len] bytes, recycled
    when the class has one parked. Contents are unspecified (possibly
    poisoned) — the caller must overwrite every byte it emits. *)

val release : t -> bytes -> unit
(** Park the buffer for reuse. The caller must not touch it afterwards.
    @raise Double_release in debug mode if the buffer is already parked. *)

val stats : t -> stats
