(* Dense bins: [data.(i)] is bin [base + i]; [lo]..[hi] is the range of
   bins touched so far ([lo > hi] while empty). Bins inside that range
   that were never touched read as 0. *)
type t = {
  bin_ns : int;
  mutable data : float array;
  mutable base : int;
  mutable lo : int;
  mutable hi : int;
}

let create ~bin_ns =
  if bin_ns <= 0 then invalid_arg "Timeseries.create: bin_ns";
  { bin_ns; data = [||]; base = 0; lo = max_int; hi = min_int }

let bin_of t time = time / t.bin_ns

(* Re-lay [data] over twice the touched span so it covers bin [b] too.
   Series mostly advance with time, so a forward stretch (and the first
   bin) puts all the slack after the data; a backward one splits it, so
   a series stretching at both ends still regrows only after as many
   adds as it holds bins. *)
let grow t b =
  let empty = t.lo > t.hi in
  let lo = min t.lo b and hi = max t.hi b in
  let span = hi - lo + 1 in
  let cap = max 8 (2 * span) in
  let base = if b < t.lo && not empty then lo - ((cap - span) / 2) else lo in
  let data = Array.make cap 0.0 in
  if not empty then
    Array.blit t.data (t.lo - t.base) data (t.lo - base) (t.hi - t.lo + 1);
  t.data <- data;
  t.base <- base

let add t time value =
  let b = bin_of t time in
  if b < t.base || b - t.base >= Array.length t.data then grow t b;
  if b < t.lo then t.lo <- b;
  if b > t.hi then t.hi <- b;
  let i = b - t.base in
  t.data.(i) <- t.data.(i) +. value

let incr t time = add t time 1.0
let bin_ns t = t.bin_ns

let bins t =
  if t.lo > t.hi then [||]
  else
    Array.init
      (t.hi - t.lo + 1)
      (fun i -> ((t.lo + i) * t.bin_ns, t.data.(t.lo - t.base + i)))

let rates_per_second t =
  let bin_s = float_of_int t.bin_ns /. 1e9 in
  Array.map (fun (time, v) -> (float_of_int time /. 1e9, v /. bin_s)) (bins t)

let fold t ~init ~f =
  Array.fold_left (fun acc (time, v) -> f acc time v) init (bins t)
