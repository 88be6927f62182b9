(** Model of the Tofino packet parser for Scallop's programs (paper
    Appendix E).

    The P4 parser is a static graph of states; parsing into RTP header
    extensions is hard because elements have variable length and position.
    The paper's solution — reproduced here — is a depth-aware tree: a
    landing state per extension-element slot decides via {e lookahead}
    whether a one-byte header, a two-byte header or padding follows, and a
    {e ParserCounter} tracks the extension bytes still to consume.

    [walk] executes that graph over a UDP payload, returning the packet's
    classification and the number of parser states traversed; an
    {!observe}d tracker reports the depth distribution, and {!graph_depth}
    is the static worst case the program must fit (the "Parsing depth"
    row of Table 3). *)

type kind =
  | Rtp of { av1_template : int option; elements : int }
  | Rtcp of { packet_type : int }
  | Stun
  | Other

type walk = { kind : kind; depth : int }

val max_extension_elements : int
(** Slots in the depth-aware tree (10). Elements beyond this are left
    unparsed, exactly as the hardware graph would. *)

val graph_depth : int
(** Static maximum depth of the ingress parse graph: Ethernet/IPv4/UDP,
    RTP + extension header, two states per element slot, and the AV1
    descriptor extraction — 27, the paper's Table 3 value. *)

val walk : bytes -> walk
(** Parse one UDP payload, extracting the AV1 template id from extension
    element 1. Never raises: malformed input classifies as [Other] at
    whatever depth the graph rejected it. *)

type t

val create : unit -> t
val observe : t -> bytes -> walk
val packets : t -> int
val max_depth : t -> int
val mean_depth : t -> float
