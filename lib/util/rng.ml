type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* SplitMix64 output function (Steele, Lea, Flood 2014). *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let s = int64 t in
  { state = mix s }

let int t bound =
  assert (bound > 0);
  (* keep 62 bits so Int64.to_int never lands in the sign bit *)
  let x = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  x mod bound

(* 53 random bits mapped into [0, 1). *)
let unit_float t =
  let bits = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bits *. (1.0 /. 9007199254740992.0)

let float t bound = unit_float t *. bound
let bernoulli t p = unit_float t < p
let uniform t lo hi = lo +. (unit_float t *. (hi -. lo))

let exponential t mean =
  let u = 1.0 -. unit_float t in
  -.mean *. log u

let gaussian t ~mu ~sigma =
  let u1 = 1.0 -. unit_float t and u2 = unit_float t in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let lognormal t ~mu ~sigma = exp (gaussian t ~mu ~sigma)

let pareto t ~scale ~shape =
  let u = 1.0 -. unit_float t in
  scale /. (u ** (1.0 /. shape))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
