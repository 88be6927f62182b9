module Online = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () = { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

  let observe t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let mean t = t.mean
  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)
  let min t = t.min
  let max t = t.max
end

let percentile_of_array sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p <= 0.0 then sorted.(0)
  else if p >= 100.0 then sorted.(n - 1)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

module Samples = struct
  type t = {
    mutable data : float array;
    mutable n : int;
    mutable sorted : bool;
  }

  let create () = { data = Array.make 64 0.0; n = 0; sorted = true }

  let observe t x =
    (* A NaN sample would silently poison every percentile (NaN compares
       false against everything, so the sort leaves it stranded anywhere
       in the array); reject it at the door instead. *)
    if Float.is_nan x then invalid_arg "Stats.Samples.observe: NaN";
    if t.n = Array.length t.data then begin
      let bigger = Array.make (2 * t.n) 0.0 in
      Array.blit t.data 0 bigger 0 t.n;
      t.data <- bigger
    end;
    t.data.(t.n) <- x;
    t.n <- t.n + 1;
    t.sorted <- false

  let count t = t.n

  let ensure_sorted t =
    if not t.sorted then begin
      let live = Array.sub t.data 0 t.n in
      Array.sort Float.compare live;
      Array.blit live 0 t.data 0 t.n;
      t.sorted <- true
    end

  let percentile t p =
    ensure_sorted t;
    percentile_of_array (Array.sub t.data 0 t.n) p

  let median t = percentile t 50.0
  let min t = percentile t 0.0
  let max t = percentile t 100.0
end

module Histogram = struct
  type t = {
    bounds : float array;  (** ascending inclusive upper bounds *)
    counts : int array;  (** one per bound, plus a trailing overflow bucket *)
    mutable n : int;
    mutable sum : float;
    mutable minv : float;
    mutable maxv : float;
  }

  let log_bounds ~lo ~hi ~per_decade =
    if not (lo > 0.0) || not (hi > lo) || per_decade <= 0 then
      invalid_arg "Stats.Histogram.log_bounds";
    let decades = Float.log10 (hi /. lo) in
    let n = int_of_float (Float.ceil (float_of_int per_decade *. decades)) in
    Array.init (n + 1) (fun i ->
        lo *. (10.0 ** (float_of_int i /. float_of_int per_decade)))

  (* 100 ns .. 10 s at 5 buckets per decade: covers everything from a
     single table lookup to a stalled control-plane retry. *)
  let default_bounds = log_bounds ~lo:100.0 ~hi:1e10 ~per_decade:5

  let create ?(bounds = default_bounds) () =
    let n = Array.length bounds in
    if n = 0 then invalid_arg "Stats.Histogram.create: no buckets";
    for i = 1 to n - 1 do
      if not (bounds.(i) > bounds.(i - 1)) then
        invalid_arg "Stats.Histogram.create: bounds not strictly ascending"
    done;
    {
      bounds = Array.copy bounds;
      counts = Array.make (n + 1) 0;
      n = 0;
      sum = 0.0;
      minv = infinity;
      maxv = neg_infinity;
    }

  (* Smallest bucket whose upper bound holds [x]; the trailing overflow
     bucket when [x] exceeds every bound. Fixed bucket count makes this a
     bounded binary search — constant time on the hot path. *)
  let bucket_index t x =
    let n = Array.length t.bounds in
    if x > t.bounds.(n - 1) then n
    else begin
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if x <= t.bounds.(mid) then hi := mid else lo := mid + 1
      done;
      !lo
    end

  let observe t x =
    if Float.is_nan x then invalid_arg "Stats.Histogram.observe: NaN";
    t.counts.(bucket_index t x) <- t.counts.(bucket_index t x) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum +. x;
    if x < t.minv then t.minv <- x;
    if x > t.maxv then t.maxv <- x

  let count t = t.n
  let sum t = t.sum
  let min t = t.minv
  let max t = t.maxv

  let iter_buckets t f =
    let cum = ref 0 in
    Array.iteri
      (fun i c ->
        cum := !cum + c;
        let le = if i < Array.length t.bounds then t.bounds.(i) else infinity in
        f ~le ~count:!cum)
      t.counts

  let percentile t p =
    if t.n = 0 then invalid_arg "Stats.Histogram.percentile: empty";
    let p = Float.min 100.0 (Float.max 0.0 p) in
    let rank = p /. 100.0 *. float_of_int t.n in
    let nb = Array.length t.bounds in
    let rec seek i cum =
      if i > nb then t.maxv
      else
        let cum' = cum + t.counts.(i) in
        if float_of_int cum' >= rank && t.counts.(i) > 0 then begin
          (* linear interpolation within the bucket's value span *)
          let lower = if i = 0 then t.minv else t.bounds.(i - 1) in
          let upper = if i < nb then Float.min t.bounds.(i) t.maxv else t.maxv in
          let lower = Float.max lower t.minv in
          if upper <= lower then lower
          else
            let frac =
              (rank -. float_of_int cum) /. float_of_int t.counts.(i)
            in
            lower +. (Float.min 1.0 (Float.max 0.0 frac) *. (upper -. lower))
        end
        else seek (i + 1) cum'
    in
    seek 0 0
end
