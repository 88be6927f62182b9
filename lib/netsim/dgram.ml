type t = {
  src : Scallop_util.Addr.t;
  dst : Scallop_util.Addr.t;
  payload : bytes;
  trace : int;
  pool : Scallop_util.Bufpool.t option;
}

let v ?(trace = -1) ?pool ~src ~dst payload = { src; dst; payload; trace; pool }

let release t =
  match t.pool with
  | Some pool -> Scallop_util.Bufpool.release pool t.payload
  | None -> ()

(* 14 B Ethernet + 20 B IPv4 + 8 B UDP *)
let header_overhead = 42
let wire_size t = header_overhead + Bytes.length t.payload
