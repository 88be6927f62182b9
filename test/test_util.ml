(* Unit and property tests for the scallop_util library. *)

module Rng = Scallop_util.Rng
module Ewma = Scallop_util.Ewma
module Stats = Scallop_util.Stats
module Timeseries = Scallop_util.Timeseries
module Table = Scallop_util.Table
module Addr = Scallop_util.Addr

let check_float = Alcotest.(check (float 1e-9))
let check_close msg tolerance expected actual = Alcotest.(check (float tolerance)) msg expected actual

(* --- Rng ------------------------------------------------------------------ *)

let rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different streams" false (Rng.int64 a = Rng.int64 b)

let rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  Alcotest.(check bool) "child differs" false (Rng.int64 parent = Rng.int64 child)

let rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 17 in
    if x < 0 || x >= 17 then Alcotest.failf "out of bounds: %d" x
  done;
  (* large bounds that would overflow naive conversions *)
  for _ = 1 to 1_000 do
    let x = Rng.int rng 2_500_000_000 in
    if x < 0 then Alcotest.failf "negative from large bound: %d" x
  done

let rng_float_bounds () =
  let rng = Rng.create 4 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng 1.0 in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "float out of bounds: %f" x
  done

let rng_bernoulli_rate () =
  let rng = Rng.create 5 in
  let hits = ref 0 in
  for _ = 1 to 100_000 do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  check_close "bernoulli(0.3)" 0.01 0.3 (float_of_int !hits /. 100_000.0)

let rng_exponential_mean () =
  let rng = Rng.create 6 in
  let sum = ref 0.0 in
  for _ = 1 to 100_000 do
    sum := !sum +. Rng.exponential rng 5.0
  done;
  check_close "exp mean" 0.15 5.0 (!sum /. 100_000.0)

let rng_gaussian_moments () =
  let rng = Rng.create 8 in
  let stats = Stats.Online.create () in
  for _ = 1 to 100_000 do
    Stats.Online.observe stats (Rng.gaussian rng ~mu:3.0 ~sigma:2.0)
  done;
  check_close "gaussian mean" 0.05 3.0 (Stats.Online.mean stats);
  check_close "gaussian stddev" 0.05 2.0 (Stats.Online.stddev stats)

let rng_lognormal_median () =
  let rng = Rng.create 9 in
  let samples = Stats.Samples.create () in
  for _ = 1 to 50_000 do
    Stats.Samples.observe samples (Rng.lognormal rng ~mu:(log 10.0) ~sigma:1.0)
  done;
  check_close "lognormal median" 0.5 10.0 (Stats.Samples.median samples)

let rng_shuffle_permutes () =
  let rng = Rng.create 10 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted

(* --- Ewma ----------------------------------------------------------------- *)

let ewma_first_value () =
  let e = Ewma.create ~alpha:0.5 in
  Ewma.observe e 10.0;
  check_float "first value" 10.0 (Ewma.value e)

let ewma_smoothing () =
  let e = Ewma.create ~alpha:0.5 in
  Ewma.observe e 10.0;
  Ewma.observe e 20.0;
  check_float "second" 15.0 (Ewma.value e)

let ewma_converges () =
  let e = Ewma.create ~alpha:0.3 in
  for _ = 1 to 100 do
    Ewma.observe e 42.0
  done;
  check_close "converged" 1e-6 42.0 (Ewma.value e)

let ewma_empty () =
  let e = Ewma.create ~alpha:0.3 in
  Alcotest.(check (option (float 0.0))) "no value" None (Ewma.value_opt e);
  Alcotest.check_raises "value raises" (Invalid_argument "Ewma.value: no observations")
    (fun () -> ignore (Ewma.value e))

let ewma_bad_alpha () =
  Alcotest.check_raises "alpha > 1" (Invalid_argument "Ewma.create: alpha must be in (0, 1]")
    (fun () -> ignore (Ewma.create ~alpha:1.5))

(* --- Stats ---------------------------------------------------------------- *)

let online_mean_variance () =
  let s = Stats.Online.create () in
  List.iter (Stats.Online.observe s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_float "mean" 5.0 (Stats.Online.mean s);
  check_close "variance" 1e-9 4.571428571428571 (Stats.Online.variance s);
  check_float "min" 2.0 (Stats.Online.min s);
  check_float "max" 9.0 (Stats.Online.max s)

let samples_percentiles () =
  let s = Stats.Samples.create () in
  for i = 1 to 100 do
    Stats.Samples.observe s (float_of_int i)
  done;
  check_float "median" 50.5 (Stats.Samples.median s);
  check_float "p0" 1.0 (Stats.Samples.percentile s 0.0);
  check_float "p100" 100.0 (Stats.Samples.percentile s 100.0);
  check_close "p99" 0.01 99.01 (Stats.Samples.percentile s 99.0)

let samples_interleaved_sorting () =
  let s = Stats.Samples.create () in
  Stats.Samples.observe s 3.0;
  Stats.Samples.observe s 1.0;
  ignore (Stats.Samples.median s);
  Stats.Samples.observe s 2.0;
  check_float "median after more data" 2.0 (Stats.Samples.median s)

let samples_empty_raises () =
  let s = Stats.Samples.create () in
  Alcotest.check_raises "empty percentile" (Invalid_argument "Stats.percentile: empty")
    (fun () -> ignore (Stats.Samples.median s))

let samples_grows () =
  let s = Stats.Samples.create () in
  for i = 1 to 10_000 do
    Stats.Samples.observe s (float_of_int i)
  done;
  Alcotest.(check int) "count" 10_000 (Stats.Samples.count s)

let samples_nan_raises () =
  let s = Stats.Samples.create () in
  Alcotest.check_raises "NaN rejected"
    (Invalid_argument "Stats.Samples.observe: NaN") (fun () ->
      Stats.Samples.observe s Float.nan)

(* Regression: sorting with polymorphic compare handled negative floats
   and -0.0/0.0 by structural comparison of their boxed representation;
   Float.compare must give a total numeric order, so percentiles over
   sign-mixed data stay correct. *)
let samples_negative_sort () =
  let s = Stats.Samples.create () in
  List.iter (Stats.Samples.observe s) [ 5.0; -3.0; 0.0; -0.0; 4.0; -7.0; 1.0 ];
  check_float "min" (-7.0) (Stats.Samples.percentile s 0.0);
  check_float "max" 5.0 (Stats.Samples.percentile s 100.0);
  check_float "median" 0.0 (Stats.Samples.median s)

(* --- Stats.Histogram -------------------------------------------------------- *)

let hist_basic () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.observe h) [ 150.0; 1_500.0; 1_500.0; 2e10 ];
  Alcotest.(check int) "count" 4 (Stats.Histogram.count h);
  check_float "sum" (150.0 +. 1_500.0 +. 1_500.0 +. 2e10) (Stats.Histogram.sum h);
  check_float "min" 150.0 (Stats.Histogram.min h);
  check_float "max" 2e10 (Stats.Histogram.max h)

let hist_percentile_interpolates () =
  let h = Stats.Histogram.create () in
  for i = 1 to 1_000 do
    Stats.Histogram.observe h (float_of_int i *. 1_000.0)
  done;
  (* 1 µs .. 1 ms uniform: the log buckets are coarse, but interpolated
     percentiles must stay within a bucket width of the true value *)
  let p50 = Stats.Histogram.percentile h 50.0 in
  let p99 = Stats.Histogram.percentile h 99.0 in
  Alcotest.(check bool) "p50 in range" true (p50 > 250_000.0 && p50 < 800_000.0);
  Alcotest.(check bool) "p99 in range" true (p99 > 700_000.0 && p99 <= 1_000_000.0);
  Alcotest.(check bool) "ordered" true (p50 <= p99)

let hist_buckets_cumulative () =
  let h = Stats.Histogram.create ~bounds:[| 10.0; 100.0; 1000.0 |] () in
  List.iter (Stats.Histogram.observe h) [ 5.0; 50.0; 500.0; 5000.0 ];
  let acc = ref [] in
  Stats.Histogram.iter_buckets h (fun ~le ~count -> acc := (le, count) :: !acc);
  match List.rev !acc with
  | [ (le0, c0); (le1, c1); (le2, c2); (le3, c3) ] ->
      check_float "le0" 10.0 le0;
      Alcotest.(check int) "cum count 0" 1 c0;
      check_float "le1" 100.0 le1;
      Alcotest.(check int) "cum count 1" 2 c1;
      check_float "le2" 1000.0 le2;
      Alcotest.(check int) "cum count 2" 3 c2;
      Alcotest.(check bool) "overflow le is inf" true (le3 = Float.infinity);
      Alcotest.(check int) "cum count 3" 4 c3
  | l -> Alcotest.failf "expected 4 buckets, got %d" (List.length l)

let hist_nan_raises () =
  let h = Stats.Histogram.create () in
  Alcotest.check_raises "NaN rejected"
    (Invalid_argument "Stats.Histogram.observe: NaN") (fun () ->
      Stats.Histogram.observe h Float.nan)

let hist_bad_bounds () =
  Alcotest.check_raises "non-ascending bounds"
    (Invalid_argument "Stats.Histogram.create: bounds not strictly ascending")
    (fun () -> ignore (Stats.Histogram.create ~bounds:[| 1.0; 1.0 |] ()))

let hist_empty_percentile_raises () =
  let h = Stats.Histogram.create () in
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Stats.Histogram.percentile: empty") (fun () ->
      ignore (Stats.Histogram.percentile h 50.0))

let hist_single_sample () =
  let h = Stats.Histogram.create () in
  Stats.Histogram.observe h 42.0;
  (* one sample: every percentile clamps to the observed min = max *)
  List.iter
    (fun p -> check_float (Printf.sprintf "p%g" p) 42.0 (Stats.Histogram.percentile h p))
    [ 0.0; 50.0; 99.0; 100.0 ]

let hist_all_equal () =
  let h = Stats.Histogram.create () in
  for _ = 1 to 100 do
    Stats.Histogram.observe h 7.0
  done;
  Alcotest.(check int) "count" 100 (Stats.Histogram.count h);
  (* identical samples: interpolation must not smear outside [min, max] *)
  List.iter
    (fun p -> check_float (Printf.sprintf "p%g" p) 7.0 (Stats.Histogram.percentile h p))
    [ 1.0; 50.0; 99.0 ]

(* --- Timeseries ------------------------------------------------------------ *)

let ts_binning () =
  let ts = Timeseries.create ~bin_ns:1000 in
  Timeseries.add ts 0 1.0;
  Timeseries.add ts 999 2.0;
  Timeseries.add ts 1000 5.0;
  let bins = Timeseries.bins ts in
  Alcotest.(check int) "two bins" 2 (Array.length bins);
  check_float "bin 0" 3.0 (snd bins.(0));
  check_float "bin 1" 5.0 (snd bins.(1))

let ts_empty_bins_filled () =
  let ts = Timeseries.create ~bin_ns:100 in
  Timeseries.incr ts 0;
  Timeseries.incr ts 500;
  let bins = Timeseries.bins ts in
  Alcotest.(check int) "six bins" 6 (Array.length bins);
  check_float "middle empty" 0.0 (snd bins.(2))

let ts_rates () =
  let ts = Timeseries.create ~bin_ns:1_000_000_000 in
  Timeseries.add ts 0 500.0;
  let rates = Timeseries.rates_per_second ts in
  check_float "rate" 500.0 (snd rates.(0))

let ts_out_of_order () =
  let ts = Timeseries.create ~bin_ns:10 in
  Timeseries.add ts 55 1.0;
  Timeseries.add ts 5 1.0;
  Alcotest.(check int) "bins span" 6 (Array.length (Timeseries.bins ts))

let ts_window_rollover () =
  (* samples straddling a bin boundary must land in distinct bins: the
     last nanosecond of bin 0 stays in bin 0, the first of bin 1 rolls
     over — the property the QoE sliding-window sums lean on *)
  let ts = Timeseries.create ~bin_ns:1000 in
  Timeseries.add ts 999 1.0;
  Timeseries.add ts 1000 2.0;
  Timeseries.add ts 1999 4.0;
  Timeseries.add ts 2000 8.0;
  let bins = Timeseries.bins ts in
  Alcotest.(check int) "three bins" 3 (Array.length bins);
  Alcotest.(check int) "bin 0 starts at 0" 0 (fst bins.(0));
  check_float "bin 0" 1.0 (snd bins.(0));
  Alcotest.(check int) "bin 1 starts at 1000" 1000 (fst bins.(1));
  check_float "bin 1 rolls over" 6.0 (snd bins.(1));
  check_float "bin 2" 8.0 (snd bins.(2));
  (* fold visits each non-empty bin exactly once with its bin start *)
  let visited =
    Timeseries.fold ts ~init:[] ~f:(fun acc time v -> (time, v) :: acc)
  in
  Alcotest.(check (list (pair int (float 1e-9))))
    "fold order and contents"
    [ (0, 1.0); (1000, 6.0); (2000, 8.0) ]
    (List.rev visited)

(* --- Table ------------------------------------------------------------------ *)

let table_renders () =
  let t = Table.create ~title:"t" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333"; "4" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && String.sub s 0 4 = "== t");
  (* all rows aligned: every line starting with | has the same length *)
  let lines = String.split_on_char '\n' s in
  let widths =
    List.filter_map
      (fun l -> if String.length l > 0 && l.[0] = '|' then Some (String.length l) else None)
      lines
  in
  match widths with
  | w :: rest -> List.iter (fun w' -> Alcotest.(check int) "aligned" w w') rest
  | [] -> Alcotest.fail "no rows rendered"

let table_arity_check () =
  let t = Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: row arity mismatch")
    (fun () -> Table.add_row t [ "only one" ])

let table_csv () =
  let t = Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Table.add_row t [ "1"; "plain" ];
  Table.add_row t [ "2"; "with, comma" ];
  Table.add_row t [ "3"; "with \"quote\"" ];
  Alcotest.(check string) "csv escaping"
    "a,b\n1,plain\n2,\"with, comma\"\n3,\"with \"\"quote\"\"\"\n" (Table.to_csv t)

let table_csv_sink () =
  let captured = ref [] in
  Table.set_csv_sink (Some (fun ~title ~csv -> captured := (title, csv) :: !captured));
  let t = Table.create ~title:"sink me" ~columns:[ "x" ] in
  Table.add_row t [ "42" ];
  (* print goes to stdout AND the sink *)
  Table.print t;
  Table.set_csv_sink None;
  match !captured with
  | [ (title, csv) ] ->
      Alcotest.(check string) "title" "sink me" title;
      Alcotest.(check string) "csv" "x\n42\n" csv
  | _ -> Alcotest.fail "sink not called exactly once"

let table_cells () =
  Alcotest.(check string) "float" "3.14" (Table.cell_f 3.14159);
  Alcotest.(check string) "pct" "50.00%" (Table.cell_pct 0.5);
  Alcotest.(check string) "int" "7" (Table.cell_i 7)

(* --- Addr ------------------------------------------------------------------ *)

let addr_roundtrip () =
  let a = Addr.of_string "10.1.2.3:4567" in
  Alcotest.(check string) "roundtrip" "10.1.2.3:4567" (Addr.to_string a);
  Alcotest.(check int) "port" 4567 a.Addr.port

let addr_ip_conversion () =
  Alcotest.(check int) "ip value" 0x0A000001 (Addr.ip_of_string "10.0.0.1");
  Alcotest.(check string) "ip string" "255.255.255.255" (Addr.ip_to_string 0xFFFFFFFF);
  Alcotest.(check string) "all zero" "0.0.0.0" (Addr.ip_to_string 0);
  (* one-, two- and three-digit octets, and bits above 32 ignored *)
  Alcotest.(check string) "mixed" "7.10.100.255" (Addr.ip_to_string 0x1_070A64FF);
  Alcotest.(check string) "with port" "0.0.0.0:0" (Addr.to_string (Addr.v 0 0));
  Alcotest.(check string) "max with port" "255.255.255.255:65535"
    (Addr.to_string (Addr.v 0xFFFFFFFF 0xFFFF));
  Alcotest.(check string) "mixed with port" "192.168.9.20:5004"
    (Addr.to_string (Addr.v 0xC0A80914 5004))

let addr_invalid () =
  Alcotest.check_raises "bad ip" (Invalid_argument "Addr.ip_of_string: 300.0.0.1")
    (fun () -> ignore (Addr.ip_of_string "300.0.0.1"));
  Alcotest.check_raises "no port" (Invalid_argument "Addr.of_string: 1.2.3.4")
    (fun () -> ignore (Addr.of_string "1.2.3.4"))

let addr_ordering () =
  let a = Addr.v 1 5 and b = Addr.v 1 6 and c = Addr.v 2 0 in
  Alcotest.(check bool) "port order" true (Addr.compare a b < 0);
  Alcotest.(check bool) "ip order" true (Addr.compare b c < 0);
  Alcotest.(check bool) "equal" true (Addr.equal a (Addr.v 1 5))

(* --- Bufpool ---------------------------------------------------------------- *)

module Bufpool = Scallop_util.Bufpool

let bufpool_exact_length () =
  let p = Bufpool.create () in
  List.iter
    (fun len ->
      Alcotest.(check int) "exact length" len (Bytes.length (Bufpool.checkout p len)))
    [ 0; 1; 13; 1200; 65_536 ]

let bufpool_recycles_physically () =
  let p = Bufpool.create () in
  let a = Bufpool.checkout p 1200 in
  Bufpool.release p a;
  let b = Bufpool.checkout p 1200 in
  Alcotest.(check bool) "same buffer back" true (a == b);
  (* a different length is a different class: must not alias *)
  Bufpool.release p b;
  let c = Bufpool.checkout p 1201 in
  Alcotest.(check bool) "class isolation" false (Obj.repr b == Obj.repr c)

let bufpool_stats_accounting () =
  let p = Bufpool.create () in
  let a = Bufpool.checkout p 100 in
  let b = Bufpool.checkout p 100 in
  let s = Bufpool.stats p in
  Alcotest.(check int) "live" 2 s.Bufpool.live;
  Alcotest.(check int) "high water" 2 s.Bufpool.high_water;
  Alcotest.(check int) "fresh" 2 s.Bufpool.fresh;
  Alcotest.(check int) "recycled" 0 s.Bufpool.recycled;
  Bufpool.release p a;
  Bufpool.release p b;
  let c = Bufpool.checkout p 100 in
  let s = Bufpool.stats p in
  Alcotest.(check int) "live after cycle" 1 s.Bufpool.live;
  Alcotest.(check int) "high water sticky" 2 s.Bufpool.high_water;
  Alcotest.(check int) "recycled" 1 s.Bufpool.recycled;
  Alcotest.(check int) "released" 2 s.Bufpool.released;
  Alcotest.(check int) "classes" 1 s.Bufpool.classes;
  Alcotest.(check int) "parked bytes" 100 s.Bufpool.parked_bytes;
  Bufpool.release p c

let bufpool_double_release_debug () =
  let p = Bufpool.create ~debug:true () in
  let a = Bufpool.checkout p 64 in
  Bufpool.release p a;
  Alcotest.check_raises "double release" (Bufpool.Double_release 64) (fun () ->
      Bufpool.release p a)

let bufpool_poison_on_release () =
  let p = Bufpool.create ~debug:true () in
  let a = Bufpool.checkout p 32 in
  Bytes.fill a 0 32 'x';
  Bufpool.release p a;
  (* the parked buffer must be stamped so stale aliases read garbage *)
  Bytes.iter
    (fun c ->
      if c <> Bufpool.poison_byte then
        Alcotest.failf "unpoisoned byte %C after release" c)
    a

let bufpool_class_depth_cap () =
  let p = Bufpool.create ~max_class_depth:2 () in
  let bufs = List.init 5 (fun _ -> Bufpool.checkout p 10) in
  List.iter (Bufpool.release p) bufs;
  let s = Bufpool.stats p in
  Alcotest.(check int) "parked capped" (2 * 10) s.Bufpool.parked_bytes;
  Alcotest.(check int) "overflow dropped" 3 s.Bufpool.dropped;
  Alcotest.(check int) "all releases counted" 5 s.Bufpool.released

(* random checkout/release interleavings against a naive model: live count
   matches, checkouts always have the requested length, and nothing is
   handed out twice while still checked out *)
let prop_bufpool_model =
  QCheck.Test.make ~count:100 ~name:"bufpool checkout/release model"
    QCheck.(list_of_size Gen.(1 -- 200) (pair bool (int_bound 4)))
    (fun ops ->
      let p = Bufpool.create ~debug:true () in
      let lens = [| 10; 100; 1200; 1300; 65_536 |] in
      let live = ref [] in
      let ok = ref true in
      List.iter
        (fun (is_checkout, i) ->
          if is_checkout || !live = [] then begin
            let b = Bufpool.checkout p lens.(i) in
            if Bytes.length b <> lens.(i) then ok := false;
            if List.memq b !live then ok := false (* aliased while live *);
            live := b :: !live
          end
          else
            match !live with
            | b :: rest ->
                Bufpool.release p b;
                live := rest
            | [] -> ())
        ops;
      let s = Bufpool.stats p in
      !ok
      && s.Bufpool.live = List.length !live
      && s.Bufpool.fresh + s.Bufpool.recycled = s.Bufpool.live + s.Bufpool.released)

(* --- qcheck properties ------------------------------------------------------ *)

let prop_percentile_bounded =
  QCheck.Test.make ~count:200 ~name:"percentile within min/max"
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0)) (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let s = Stats.Samples.create () in
      List.iter (Stats.Samples.observe s) xs;
      let v = Stats.Samples.percentile s p in
      v >= Stats.Samples.min s && v <= Stats.Samples.max s)

let prop_online_mean_matches =
  QCheck.Test.make ~count:200 ~name:"online mean = batch mean"
    QCheck.(list_of_size Gen.(1 -- 100) (float_bound_exclusive 100.0))
    (fun xs ->
      let s = Stats.Online.create () in
      List.iter (Stats.Online.observe s) xs;
      let batch = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      Float.abs (Stats.Online.mean s -. batch) < 1e-6)

let prop_addr_roundtrip =
  QCheck.Test.make ~count:200 ~name:"addr to_string/of_string roundtrip"
    QCheck.(pair (int_bound 0xFFFFFFF) (int_bound 0xFFFF))
    (fun (ip, port) ->
      let a = Addr.v ip port in
      Addr.equal a (Addr.of_string (Addr.to_string a)))

(* The hash-table Timeseries the dense one replaced, kept as a reference
   model: every touched bin is a table entry, [bins] materializes the
   dense range between the smallest and largest. *)
module Ref_timeseries = struct
  type t = { bin_ns : int; tbl : (int, float) Hashtbl.t }

  let create ~bin_ns = { bin_ns; tbl = Hashtbl.create 256 }

  let add t time value =
    let b = time / t.bin_ns in
    let cur = Option.value (Hashtbl.find_opt t.tbl b) ~default:0.0 in
    Hashtbl.replace t.tbl b (cur +. value)

  let bins t =
    if Hashtbl.length t.tbl = 0 then [||]
    else begin
      let lo = ref max_int and hi = ref min_int in
      Hashtbl.iter
        (fun b _ ->
          if b < !lo then lo := b;
          if b > !hi then hi := b)
        t.tbl;
      Array.init
        (!hi - !lo + 1)
        (fun i ->
          let b = !lo + i in
          (b * t.bin_ns, Option.value (Hashtbl.find_opt t.tbl b) ~default:0.0))
    end

  let rates_per_second t =
    let bin_s = float_of_int t.bin_ns /. 1e9 in
    Array.map (fun (time, v) -> (float_of_int time /. 1e9, v /. bin_s)) (bins t)
end

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_series eq_fst a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun (t, v) (t', v') -> eq_fst t t' && same_float v v') a b

(* out-of-order and negative times (integer division truncates toward
   zero, so bin 0 spans both signs), zero and negative values, and
   bin widths from 1 ns up *)
let prop_timeseries_matches_reference =
  QCheck.Test.make ~count:500 ~name:"dense timeseries = hashtable reference"
    QCheck.(
      pair (oneofl [ 1; 7; 100; 1000 ])
        (list_of_size Gen.(0 -- 120)
           (pair (int_range (-5_000) 5_000)
              (oneofl [ 0.0; -0.0; 1.0; -2.5; 0.1; 1e-3; 1e9 ]))))
    (fun (bin_ns, ops) ->
      let ts = Timeseries.create ~bin_ns and r = Ref_timeseries.create ~bin_ns in
      List.iter
        (fun (time, value) ->
          Timeseries.add ts time value;
          Ref_timeseries.add r time value)
        ops;
      same_series Int.equal (Timeseries.bins ts) (Ref_timeseries.bins r)
      && same_series same_float (Timeseries.rates_per_second ts)
           (Ref_timeseries.rates_per_second r)
      && Timeseries.fold ts ~init:[] ~f:(fun acc t v -> (t, v) :: acc)
         |> List.rev |> Array.of_list
         |> same_series Int.equal (Ref_timeseries.bins r))

(* --- Json.escape ---------------------------------------------------------- *)

let json_escape () =
  let check input expected =
    Alcotest.(check string) (String.escaped input) expected (Scallop_util.Json.escape input)
  in
  check "" "";
  check "plain text, 1.5 ms" "plain text, 1.5 ms";
  check "say \"hi\"" "say \\\"hi\\\"";
  check "a\\b" "a\\\\b";
  (* every control byte takes the \u form, even those with short escapes *)
  check "\n\t\r\000\031" "\\u000a\\u0009\\u000d\\u0000\\u001f";
  (* bytes from 0x20 up pass through, UTF-8 included *)
  check "\x7f caf\xc3\xa9" "\x7f caf\xc3\xa9"

let qsuite = List.map Fixed_seed.to_alcotest
    [ prop_percentile_bounded; prop_online_mean_matches; prop_addr_roundtrip;
      prop_bufpool_model; prop_timeseries_matches_reference ]

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick rng_split_independent;
          Alcotest.test_case "int bounds" `Quick rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick rng_float_bounds;
          Alcotest.test_case "bernoulli rate" `Quick rng_bernoulli_rate;
          Alcotest.test_case "exponential mean" `Quick rng_exponential_mean;
          Alcotest.test_case "gaussian moments" `Quick rng_gaussian_moments;
          Alcotest.test_case "lognormal median" `Quick rng_lognormal_median;
          Alcotest.test_case "shuffle permutes" `Quick rng_shuffle_permutes;
        ] );
      ( "ewma",
        [
          Alcotest.test_case "first value" `Quick ewma_first_value;
          Alcotest.test_case "smoothing" `Quick ewma_smoothing;
          Alcotest.test_case "converges" `Quick ewma_converges;
          Alcotest.test_case "empty" `Quick ewma_empty;
          Alcotest.test_case "bad alpha" `Quick ewma_bad_alpha;
        ] );
      ( "stats",
        [
          Alcotest.test_case "online mean/variance" `Quick online_mean_variance;
          Alcotest.test_case "percentiles" `Quick samples_percentiles;
          Alcotest.test_case "interleaved sorting" `Quick samples_interleaved_sorting;
          Alcotest.test_case "empty raises" `Quick samples_empty_raises;
          Alcotest.test_case "growth" `Quick samples_grows;
          Alcotest.test_case "NaN rejected" `Quick samples_nan_raises;
          Alcotest.test_case "negative sort regression" `Quick
            samples_negative_sort;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basic" `Quick hist_basic;
          Alcotest.test_case "percentile interpolates" `Quick
            hist_percentile_interpolates;
          Alcotest.test_case "cumulative buckets" `Quick hist_buckets_cumulative;
          Alcotest.test_case "NaN rejected" `Quick hist_nan_raises;
          Alcotest.test_case "bad bounds" `Quick hist_bad_bounds;
          Alcotest.test_case "empty percentile raises" `Quick
            hist_empty_percentile_raises;
          Alcotest.test_case "single sample" `Quick hist_single_sample;
          Alcotest.test_case "all equal" `Quick hist_all_equal;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "binning" `Quick ts_binning;
          Alcotest.test_case "empty bins filled" `Quick ts_empty_bins_filled;
          Alcotest.test_case "rates" `Quick ts_rates;
          Alcotest.test_case "out of order" `Quick ts_out_of_order;
          Alcotest.test_case "window rollover" `Quick ts_window_rollover;
        ] );
      ( "table",
        [
          Alcotest.test_case "renders aligned" `Quick table_renders;
          Alcotest.test_case "arity check" `Quick table_arity_check;
          Alcotest.test_case "cell formatting" `Quick table_cells;
          Alcotest.test_case "csv" `Quick table_csv;
          Alcotest.test_case "csv sink" `Quick table_csv_sink;
        ] );
      ( "addr",
        [
          Alcotest.test_case "roundtrip" `Quick addr_roundtrip;
          Alcotest.test_case "ip conversion" `Quick addr_ip_conversion;
          Alcotest.test_case "invalid input" `Quick addr_invalid;
          Alcotest.test_case "ordering" `Quick addr_ordering;
        ] );
      ( "bufpool",
        [
          Alcotest.test_case "exact length" `Quick bufpool_exact_length;
          Alcotest.test_case "physical recycling" `Quick
            bufpool_recycles_physically;
          Alcotest.test_case "stats accounting" `Quick bufpool_stats_accounting;
          Alcotest.test_case "double release (debug)" `Quick
            bufpool_double_release_debug;
          Alcotest.test_case "poison on release (debug)" `Quick
            bufpool_poison_on_release;
          Alcotest.test_case "class depth cap" `Quick bufpool_class_depth_cap;
        ] );
      ("json", [ Alcotest.test_case "escape" `Quick json_escape ]);
      ("properties", qsuite);
    ]
