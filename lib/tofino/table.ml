type ('k, 'v) t = { name : string; capacity : int; tbl : ('k, 'v) Hashtbl.t }

let create ~name ~capacity =
  if capacity <= 0 then invalid_arg "Table.create: capacity";
  { name; capacity; tbl = Hashtbl.create (min capacity 1024) }

let name t = t.name
let capacity t = t.capacity
let size t = Hashtbl.length t.tbl

let insert t k v =
  if Hashtbl.mem t.tbl k then begin
    Hashtbl.replace t.tbl k v;
    Ok ()
  end
  else if Hashtbl.length t.tbl >= t.capacity then Error `Table_full
  else begin
    Hashtbl.replace t.tbl k v;
    Ok ()
  end

let lookup t k = Hashtbl.find_opt t.tbl k
let lookup_or t k ~default = match Hashtbl.find t.tbl k with v -> v | exception Not_found -> default
let remove t k = Hashtbl.remove t.tbl k
let clear t = Hashtbl.reset t.tbl
let iter t f = Hashtbl.iter f t.tbl
let fold t f init = Hashtbl.fold f t.tbl init
let utilization t = float_of_int (size t) /. float_of_int t.capacity
