type klass = { mutable bufs : bytes array; mutable n : int }

type stats = {
  live : int;
  high_water : int;
  recycled : int;
  fresh : int;
  released : int;
  dropped : int;
  classes : int;
  parked_bytes : int;
}

exception Double_release of int

let poison_byte = '\xde'

type t = {
  classes : (int, klass) Hashtbl.t;
  mutable debug : bool;
  max_class_depth : int;
  mutable live : int;
  mutable high_water : int;
  mutable recycled : int;
  mutable fresh : int;
  mutable released : int;
  mutable dropped : int;
  (* one-entry class cache: the hot path checks a single length over and
     over, so the common case skips the Hashtbl entirely *)
  mutable last_len : int;
  mutable last_class : klass;
}

let nil_class = { bufs = [||]; n = 0 }

let create ?(debug = false) ?(max_class_depth = 1024) () =
  {
    classes = Hashtbl.create 8;
    debug;
    max_class_depth;
    live = 0;
    high_water = 0;
    recycled = 0;
    fresh = 0;
    released = 0;
    dropped = 0;
    last_len = -1;
    last_class = nil_class;
  }

let set_debug t d = t.debug <- d

let class_of t len =
  if t.last_len = len then t.last_class
  else begin
    let c =
      match Hashtbl.find t.classes len with
      | c -> c
      | exception Not_found ->
          let c = { bufs = [||]; n = 0 } in
          Hashtbl.add t.classes len c;
          c
    in
    t.last_len <- len;
    t.last_class <- c;
    c
  end

let checkout t len =
  if len < 0 then invalid_arg "Bufpool.checkout: negative length";
  let c = class_of t len in
  t.live <- t.live + 1;
  if t.live > t.high_water then t.high_water <- t.live;
  if c.n > 0 then begin
    c.n <- c.n - 1;
    t.recycled <- t.recycled + 1;
    c.bufs.(c.n)
  end
  else begin
    t.fresh <- t.fresh + 1;
    Bytes.create len
  end

let release t buf =
  let len = Bytes.length buf in
  let c = class_of t len in
  if t.debug then begin
    for i = 0 to c.n - 1 do
      if c.bufs.(i) == buf then raise (Double_release len)
    done;
    if len > 0 then Bytes.fill buf 0 len poison_byte
  end;
  t.live <- t.live - 1;
  t.released <- t.released + 1;
  if c.n >= t.max_class_depth then t.dropped <- t.dropped + 1
  else begin
    if c.n = Array.length c.bufs then begin
      let bigger = Array.make (max 16 (2 * c.n)) buf in
      Array.blit c.bufs 0 bigger 0 c.n;
      c.bufs <- bigger
    end;
    c.bufs.(c.n) <- buf;
    c.n <- c.n + 1
  end

let stats t =
  let parked_bytes = Hashtbl.fold (fun len c acc -> acc + (len * c.n)) t.classes 0 in
  {
    live = t.live;
    high_water = t.high_water;
    recycled = t.recycled;
    fresh = t.fresh;
    released = t.released;
    dropped = t.dropped;
    classes = Hashtbl.length t.classes;
    parked_bytes;
  }
