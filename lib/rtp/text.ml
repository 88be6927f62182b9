type t = {
  text : string;
  mutable stop : int;  (* the end of the region *)
  mutable pos : int;  (* the next index to read; past [stop] once all is read *)
  mutable lo : int;  (* the span last read: [text.[lo, hi)] *)
  mutable hi : int;
}

let of_string text = { text; stop = String.length text; pos = 0; lo = 0; hi = 0 }

let reset t lo hi =
  if lo < 0 || hi < lo || hi > String.length t.text then invalid_arg "Text.reset";
  t.stop <- hi;
  t.pos <- lo;
  t.lo <- lo;
  t.hi <- lo

let sub t lo hi =
  let c = { t with pos = 0 } in
  reset c lo hi;
  c

let lo t = t.lo
let hi t = t.hi

let at_end t = t.pos > t.stop

let rec index text i stop sep =
  if i < stop && String.unsafe_get text i <> sep then index text (i + 1) stop sep else i

let next t sep =
  if at_end t then false
  else begin
    let i = index t.text t.pos t.stop sep in
    t.lo <- t.pos;
    t.hi <- i;
    t.pos <- i + 1;
    true
  end

let string t = String.sub t.text t.lo (t.hi - t.lo)

let rest t =
  if at_end t then ""
  else begin
    t.lo <- t.pos;
    t.hi <- t.stop;
    t.pos <- t.stop + 1;
    string t
  end

let rec same_from text lo lit i =
  i = String.length lit
  || (String.unsafe_get text (lo + i) = lit.[i] && same_from text lo lit (i + 1))

let is t lit = t.hi - t.lo = String.length lit && same_from t.text t.lo lit 0

(* digits of [text.[i, hi)] onto [acc], negated so that [min_int] is
   reachable; [1] (never a negated value) at a non-digit or on overflow *)
let rec neg_digits text i hi acc =
  if i = hi then acc
  else
    match String.unsafe_get text i with
    | '0' .. '9' as c ->
        let d = Char.code c - 48 in
        if acc < (min_int + d) / 10 then 1 else neg_digits text (i + 1) hi ((acc * 10) - d)
    | _ -> 1

let int t =
  let neg = t.hi > t.lo && t.text.[t.lo] = '-' in
  let start = if neg then t.lo + 1 else t.lo in
  let v = if start < t.hi then neg_digits t.text start t.hi 0 else 1 in
  if v = 1 || ((not neg) && v = min_int) then Wire.parse_error "bad decimal %S" (string t)
  else if neg then v
  else -v

(* octet [k] of 4 at [i], onto [acc]; -1 unless 1-3 digits up to 255 *)
let rec quad text i hi k acc =
  let stop = if k = 3 then hi else index text i hi '.' in
  let v = if stop > i && stop - i <= 3 then -neg_digits text i stop 0 else -1 in
  if v < 0 || v > 255 then -1
  else if k = 3 then (acc lsl 8) lor v
  else if stop = hi then -1
  else quad text (stop + 1) hi (k + 1) ((acc lsl 8) lor v)

let ip t =
  match quad t.text t.lo t.hi 0 0 with
  | -1 -> Wire.parse_error "bad IPv4 address %S" (string t)
  | ip -> ip

(* [n <= 0], in decimal without its sign *)
let rec add_digits b n =
  if n <= -10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_digits b n
  end
  else add_digits b (-n)
