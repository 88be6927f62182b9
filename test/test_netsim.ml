(* Discrete-event engine, link, network and CPU-queue tests. *)

module Rng = Scallop_util.Rng
module Addr = Scallop_util.Addr
module Eventq = Netsim.Eventq
module Engine = Netsim.Engine
module Dgram = Netsim.Dgram
module Link = Netsim.Link
module Network = Netsim.Network
module Cpu_queue = Netsim.Cpu_queue

(* --- event queue ----------------------------------------------------------- *)

let eventq_ordering () =
  let q = Eventq.create () in
  Eventq.push q ~time:30 "c";
  Eventq.push q ~time:10 "a";
  Eventq.push q ~time:20 "b";
  let pop () = snd (Option.get (Eventq.pop q)) in
  Alcotest.(check string) "a" "a" (pop ());
  Alcotest.(check string) "b" "b" (pop ());
  Alcotest.(check string) "c" "c" (pop ());
  Alcotest.(check bool) "empty" true (Eventq.is_empty q)

let eventq_stable_ties () =
  let q = Eventq.create () in
  List.iter (fun v -> Eventq.push q ~time:5 v) [ "first"; "second"; "third" ];
  Alcotest.(check string) "fifo within same time" "first" (snd (Option.get (Eventq.pop q)));
  Alcotest.(check string) "fifo 2" "second" (snd (Option.get (Eventq.pop q)))

(* The tie-breaking contract (Eventq mli): ties fire in insertion order,
   [ready_count] sizes the tied set, and [pop_nth k] picks the k-th tied
   event — with [pop_nth 0] behaving exactly like [pop]. The explorer's
   permutation choice points are built on this. *)
let eventq_ready_count () =
  let q = Eventq.create () in
  Alcotest.(check int) "empty" 0 (Eventq.ready_count q);
  Eventq.push q ~time:10 "a";
  Eventq.push q ~time:10 "b";
  Eventq.push q ~time:20 "c";
  Alcotest.(check int) "two tied at min" 2 (Eventq.ready_count q);
  ignore (Eventq.pop q);
  Alcotest.(check int) "one left at min" 1 (Eventq.ready_count q);
  ignore (Eventq.pop q);
  Alcotest.(check int) "next stratum" 1 (Eventq.ready_count q)

let eventq_pop_nth () =
  let q = Eventq.create () in
  List.iter (fun v -> Eventq.push q ~time:5 v) [ "a"; "b"; "c" ];
  Eventq.push q ~time:9 "late";
  Alcotest.(check (option string))
    "out of range" None
    (Option.map snd (Eventq.pop_nth q 3));
  Alcotest.(check (option string))
    "nth picks by insertion order" (Some "b")
    (Option.map snd (Eventq.pop_nth q 1));
  Alcotest.(check (option string))
    "remaining shift down" (Some "c")
    (Option.map snd (Eventq.pop_nth q 1));
  Alcotest.(check (option string))
    "pop_nth 0 = pop" (Some "a")
    (Option.map snd (Eventq.pop_nth q 0));
  Alcotest.(check (option string))
    "later stratum untouched" (Some "late")
    (Option.map snd (Eventq.pop q))

let prop_eventq_pop_nth0_is_pop =
  QCheck.Test.make ~count:200 ~name:"pop_nth 0 behaves exactly like pop"
    QCheck.(list_of_size Gen.(1 -- 60) (int_bound 20))
    (fun times ->
      let a = Eventq.create () and b = Eventq.create () in
      List.iteri
        (fun i t ->
          Eventq.push a ~time:t i;
          Eventq.push b ~time:t i)
        times;
      let rec drain () =
        match (Eventq.pop a, Eventq.pop_nth b 0) with
        | None, None -> true
        | Some x, Some y -> x = y && drain ()
        | _ -> false
      in
      drain ())

let engine_chooser_permutes () =
  let engine = Engine.create () in
  let log = ref [] in
  let note v () = log := v :: !log in
  Engine.at engine ~time:10 (note "a");
  Engine.at engine ~time:10 (note "b");
  Engine.at engine ~time:10 (note "c");
  (* always pick the last tied event: c, b, a *)
  Engine.set_chooser engine (Some (fun ~ready -> ready - 1));
  Engine.run engine;
  Engine.set_chooser engine None;
  Alcotest.(check (list string)) "reverse order" [ "c"; "b"; "a" ] (List.rev !log)

let engine_chooser_default_and_fallback () =
  let run chooser =
    let engine = Engine.create () in
    let log = ref [] in
    let note v () = log := v :: !log in
    Engine.at engine ~time:10 (note "a");
    Engine.at engine ~time:10 (note "b");
    Engine.set_chooser engine chooser;
    Engine.run engine;
    List.rev !log
  in
  Alcotest.(check (list string))
    "no chooser: insertion order" [ "a"; "b" ] (run None);
  Alcotest.(check (list string))
    "out-of-range answer falls back to 0" [ "a"; "b" ]
    (run (Some (fun ~ready:_ -> 99)))

let prop_eventq_sorted =
  QCheck.Test.make ~count:200 ~name:"pops are time-sorted"
    QCheck.(list_of_size Gen.(1 -- 200) (int_bound 10_000))
    (fun times ->
      let q = Eventq.create () in
      List.iter (fun t -> Eventq.push q ~time:t t) times;
      let rec drain prev =
        match Eventq.pop q with
        | None -> true
        | Some (t, _) -> t >= prev && drain t
      in
      drain min_int)

(* The wheel window is ~8.4 ms; +20 ms lands in the heap spill. A tied run
   that lives in the heap — partly pushed before and partly after the near
   events drained — must still fire in insertion order once the window
   jumps forward and the run migrates back into a wheel bucket. *)
let eventq_spill_preserves_ties () =
  let q = Eventq.create () in
  let far = 20_000_000 in
  Eventq.push q ~time:5 "near";
  Eventq.push q ~time:far "h1";
  Eventq.push q ~time:far "h2";
  Alcotest.(check (option string)) "near first" (Some "near")
    (Option.map snd (Eventq.pop q));
  Eventq.push q ~time:far "h3";
  Alcotest.(check int) "migrated run counted" 3 (Eventq.ready_count q);
  Alcotest.(check (option string)) "pop_nth into migrated run" (Some "h2")
    (Option.map snd (Eventq.pop_nth q 1));
  Alcotest.(check (option string)) "insertion order kept" (Some "h1")
    (Option.map snd (Eventq.pop q));
  Alcotest.(check (option string)) "post-migration push last" (Some "h3")
    (Option.map snd (Eventq.pop q))

(* A push below the window base rebases the wheel, spilling entries that
   fall beyond the shrunk window to the heap. Ties split across that
   rebase (one entry spilled, one pushed straight to the heap) must still
   fire in insertion order. Taking "warm" anchors the window at 9 ms,
   which pulls "a" out of the heap into the wheel. *)
let eventq_rebase_preserves_ties () =
  let q = Eventq.create () in
  Eventq.push q ~time:10_000_000 "a";
  Eventq.push q ~time:9_000_000 "warm";
  Alcotest.(check (option string)) "anchor" (Some "warm")
    (Option.map snd (Eventq.pop q));
  Eventq.push q ~time:50 "early";  (* rebase: "a" spills to the heap *)
  Alcotest.(check int) "one rebase" 1 (Eventq.rebases q);
  Eventq.push q ~time:10_000_000 "b";
  Alcotest.(check (option string)) "rebased minimum" (Some "early")
    (Option.map snd (Eventq.pop q));
  Alcotest.(check (option string)) "spilled tie first" (Some "a")
    (Option.map snd (Eventq.pop q));
  Alcotest.(check (option string)) "heap tie second" (Some "b")
    (Option.map snd (Eventq.pop q));
  Alcotest.(check bool) "drained" true (Eventq.is_empty q)

(* Full behavioural equivalence against a sorted-list reference over
   random push/pop/pop_nth sequences whose times span many wheel windows
   (so heap spill, migration and the past-push rebase all trigger), with
   peek_time/ready_count/length checked after every op. *)
let prop_eventq_model =
  QCheck.Test.make ~count:200 ~name:"wheel+heap queue = sorted-list reference"
    QCheck.(list_of_size Gen.(1 -- 120) (pair (int_bound 5) (int_bound 30_000_000)))
    (fun ops ->
      let q = Eventq.create () in
      (* reference: (time, seq, v) kept sorted lexicographically *)
      let model = ref [] in
      let seq = ref 0 in
      let le (t1, s1, _) (t2, s2, _) = t1 < t2 || (t1 = t2 && s1 <= s2) in
      let model_insert e =
        let rec go = function
          | [] -> [ e ]
          | x :: rest -> if le e x then e :: x :: rest else x :: go rest
        in
        model := go !model
      in
      let model_pop_nth k =
        match !model with
        | [] -> None
        | (t0, _, _) :: _ ->
            (* remove the k-th entry of the equal-time head run, if any *)
            let rec go j l =
              match l with
              | (t, s, v) :: rest when t = t0 ->
                  if j = k then Some ((t, v), rest)
                  else
                    Option.map
                      (fun (r, rest') -> (r, (t, s, v) :: rest'))
                      (go (j + 1) rest)
              | _ -> None
            in
            Option.map
              (fun (r, m') ->
                model := m';
                r)
              (go 0 !model)
      in
      let ok = ref true in
      let expect _name a b = if a <> b then ok := false in
      List.iter
        (fun (tag, t) ->
          (match tag with
          | 0 | 1 | 2 ->
              incr seq;
              Eventq.push q ~time:t !seq;
              model_insert (t, !seq, !seq)
          | 3 ->
              let e =
                match !model with
                | [] -> None
                | (t, _, v) :: rest ->
                    model := rest;
                    Some (t, v)
              in
              expect "pop" e (Eventq.pop q)
          | _ -> expect "pop_nth" (model_pop_nth (t mod 4)) (Eventq.pop_nth q (t mod 4)));
          expect "length" (List.length !model) (Eventq.length q);
          expect "peek"
            (match !model with [] -> None | (t, _, _) :: _ -> Some t)
            (Eventq.peek_time q);
          let ready =
            match !model with
            | [] -> 0
            | (t0, _, _) :: _ -> List.length (List.filter (fun (t, _, _) -> t = t0) !model)
          in
          expect "ready_count" ready (Eventq.ready_count q))
        ops;
      !ok)

(* Engine-legal push orders: every push is at or after the last taken
   time, as the engine's are (it never schedules before its clock).
   Pushes mix near-term deltas, deltas beyond the ~8.4 ms window and
   10^7 s timers; "run until" mirrors [Engine.run ~until] (peek, take
   while not past the bound, then move the clock to it), and takes
   alternate between [pop] and [ready_count] + [pop_nth] as
   [Engine.take] does with a chooser. Every answer must match the
   sorted-list reference, and the window must never be re-homed. *)
let prop_eventq_engine_legal =
  QCheck.Test.make ~count:300 ~name:"engine-legal pushes = reference, zero rebases"
    QCheck.(list_of_size Gen.(1 -- 150) (pair (int_bound 5) (int_bound 30_000_000)))
    (fun ops ->
      let q = Eventq.create () in
      let model = ref [] (* (time, seq), sorted *) and seq = ref 0 in
      let clock = ref 0 and last_taken = ref 0 in
      let ok = ref true in
      let expect a b = if a <> b then ok := false in
      let push time =
        incr seq;
        Eventq.push q ~time !seq;
        model := List.merge compare !model [ (time, !seq) ]
      in
      let take k =
        match !model with
        | [] -> expect None (Eventq.pop q)
        | (t0, _) :: _ ->
            let tied = List.filter (fun (t, _) -> t = t0) !model in
            let k = if k < List.length tied then k else 0 in
            let ((_, s) as e) = List.nth tied k in
            model := List.filter (fun x -> x <> e) !model;
            let got =
              if k = 0 then Eventq.pop q
              else begin
                expect (List.length tied) (Eventq.ready_count q);
                Eventq.pop_nth q k
              end
            in
            expect (Some (t0, s)) got;
            last_taken := t0;
            clock := max !clock t0
      in
      let peek () =
        let p = Eventq.peek_time q in
        expect (match !model with [] -> None | (t, _) :: _ -> Some t) p;
        p
      in
      List.iter
        (fun (tag, d) ->
          (match tag with
          | 0 -> push (!clock + (d mod 20_000))
          | 1 -> push (!clock + d)
          | 2 -> push (!last_taken + (d mod 5_000))
          | 3 -> push (!clock + 10_000_000_000_000_000 + d)
          | 4 ->
              let until = !clock + (d mod 2_000_000) in
              let rec run () =
                match peek () with
                | Some t when t <= until ->
                    take (d mod 3);
                    run ()
                | _ -> ()
              in
              run ();
              clock := max !clock until
          | _ -> take (d mod 3));
          expect (List.length !model) (Eventq.length q);
          ignore (peek ()))
        ops;
      !ok && Eventq.rebases q = 0)

(* --- engine ------------------------------------------------------------------ *)

(* The registry's [scallop_eventq_rebases] value, owned by the newest engine. *)
let registry_rebases () =
  let prefix = "scallop_eventq_rebases " in
  let n = String.length prefix in
  String.split_on_char '\n' (Scallop_obs.Metrics.dump ())
  |> List.find_map (fun l ->
         if String.length l > n && String.sub l 0 n = prefix then
           int_of_string_opt (String.sub l n (String.length l - n))
         else None)

(* The ledger's fanout_bare op: one packet, then a 1 ms run, with a quiet
   client's timer parked 10^7 s ahead. Draining the wheel must not move
   the window up to that timer, or every next arrival lands below it and
   re-homes the whole wheel. *)
let engine_fanout_pattern_never_rebases () =
  let engine = Engine.create () in
  Engine.at engine ~time:(Engine.sec 1e7) (fun () -> ());
  let fired = ref 0 in
  for _ = 1 to 100 do
    let now = Engine.now engine in
    Engine.at engine ~time:(now + Engine.us 100) (fun () -> incr fired);
    Engine.run engine ~until:(now + Engine.ms 1)
  done;
  Alcotest.(check int) "every arrival fired" 100 !fired;
  Alcotest.(check (option int)) "no rebase" (Some 0) (registry_rebases ())

let engine_schedule_order () =
  let engine = Engine.create () in
  let log = ref [] in
  Engine.schedule engine ~after:20 (fun () -> log := 2 :: !log);
  Engine.schedule engine ~after:10 (fun () -> log := 1 :: !log);
  Engine.run engine;
  Alcotest.(check (list int)) "order" [ 2; 1 ] !log;
  Alcotest.(check int) "clock" 20 (Engine.now engine)

let engine_until () =
  let engine = Engine.create () in
  let fired = ref false in
  Engine.schedule engine ~after:100 (fun () -> fired := true);
  Engine.run engine ~until:50;
  Alcotest.(check bool) "not yet" false !fired;
  Alcotest.(check int) "clock advanced to until" 50 (Engine.now engine);
  Engine.run engine ~until:200;
  Alcotest.(check bool) "fired" true !fired

let engine_every_stops () =
  let engine = Engine.create () in
  let count = ref 0 in
  Engine.every engine ~interval:10 (fun () ->
      incr count;
      !count < 3);
  Engine.run engine;
  Alcotest.(check int) "three firings" 3 !count

let engine_nested_scheduling () =
  let engine = Engine.create () in
  let times = ref [] in
  Engine.schedule engine ~after:5 (fun () ->
      times := Engine.now engine :: !times;
      Engine.schedule engine ~after:5 (fun () -> times := Engine.now engine :: !times));
  Engine.run engine;
  Alcotest.(check (list int)) "nested" [ 10; 5 ] !times

let engine_rejects_past () =
  let engine = Engine.create () in
  Engine.schedule engine ~after:10 (fun () -> ());
  Engine.run engine;
  Alcotest.check_raises "past" (Invalid_argument "Engine.at: time in the past") (fun () ->
      Engine.at engine ~time:5 (fun () -> ()))

(* --- link ---------------------------------------------------------------------- *)

let a = Addr.v 1 100
let b = Addr.v 2 200
let dgram n = Dgram.v ~src:a ~dst:b (Bytes.create n)

let link_delivers_in_order () =
  let engine = Engine.create () in
  let seen = ref [] in
  let link =
    Link.create engine (Rng.create 1)
      { Link.default with rate_bps = 1e6; propagation_ns = 1000 }
      ~sink:(fun d -> seen := Bytes.length d.Dgram.payload :: !seen)
  in
  Link.send link (dgram 10);
  Link.send link (dgram 20);
  Engine.run engine;
  Alcotest.(check (list int)) "order" [ 20; 10 ] !seen

let link_serialization_delay () =
  let engine = Engine.create () in
  let arrival = ref 0 in
  let link =
    Link.create engine (Rng.create 1)
      { Link.default with rate_bps = 1e6; propagation_ns = 0 }
      ~sink:(fun _ -> arrival := Engine.now engine)
  in
  (* 1000 B payload + 42 B overhead = 1042 B = 8336 bits at 1 Mb/s *)
  Link.send link (dgram 1000);
  Engine.run engine;
  Alcotest.(check int) "serialization" 8336000 !arrival

let link_loss () =
  let engine = Engine.create () in
  let received = ref 0 in
  let link =
    Link.create engine (Rng.create 5)
      { Link.default with loss = 0.5; rate_bps = infinity }
      ~sink:(fun _ -> incr received)
  in
  for _ = 1 to 1000 do
    Link.send link (dgram 10)
  done;
  Engine.run engine;
  Alcotest.(check bool) "about half lost" true (!received > 400 && !received < 600);
  Alcotest.(check int) "accounting" 1000 (Link.delivered link + Link.dropped link)

let link_bursty_loss () =
  let engine = Engine.create () in
  let received = ref 0 in
  let link =
    Link.create engine (Rng.create 8)
      {
        Link.default with
        rate_bps = infinity;
        queue_bytes = max_int / 2;
        loss_model = Some (Link.Gilbert { avg = 0.2; burst_len = 5.0 });
      }
      ~sink:(fun _ -> incr received)
  in
  let n = 20_000 in
  for _ = 1 to n do
    Link.send link (dgram 10)
  done;
  Engine.run engine;
  let rate = 1.0 -. (float_of_int !received /. float_of_int n) in
  Alcotest.(check bool) "long-run rate near avg" true (rate > 0.15 && rate < 0.25);
  (* burstiness: consecutive losses must be far more common than under iid *)
  Alcotest.(check bool) "losses happened" true (Link.dropped link > 1000)

let link_queue_overflow () =
  let engine = Engine.create () in
  let link =
    Link.create engine (Rng.create 1)
      { Link.default with rate_bps = 1e3; queue_bytes = 2000 }
      ~sink:(fun _ -> ())
  in
  for _ = 1 to 10 do
    Link.send link (dgram 500)
  done;
  Alcotest.(check bool) "drops under overflow" true (Link.dropped link > 0)

let link_uniform_jitter_bounds () =
  let engine = Engine.create () in
  let samples = ref [] in
  let link =
    Link.create engine (Rng.create 3)
      { Link.default with rate_bps = infinity; propagation_ns = 1000; jitter = Link.Uniform 5000 }
      ~sink:(fun _ -> samples := Engine.now engine :: !samples)
  in
  for i = 0 to 499 do
    Engine.at engine ~time:(i * 100_000) (fun () -> Link.send link (dgram 10))
  done;
  Engine.run engine;
  (* each arrival is send time + 1000 + U[0,5000] *)
  List.iteri
    (fun i arrival ->
      let sent = (499 - i) * 100_000 in
      let extra = arrival - sent - 1000 in
      if extra < 0 || extra > 5000 then Alcotest.failf "jitter out of bounds: %d" extra)
    !samples

let link_heavy_tail_jitter () =
  let engine = Engine.create () in
  let stats = Scallop_util.Stats.Samples.create () in
  let link =
    Link.create engine (Rng.create 4)
      {
        Link.default with
        rate_bps = infinity;
        propagation_ns = 0;
        jitter = Link.Heavy_tail { median_ns = 2_000.0; sigma = 1.0 };
      }
      ~sink:(fun _ -> ())
  in
  (* sample the jitter distribution through arrival times *)
  for i = 0 to 1999 do
    let sent = i * 1_000_000 in
    Engine.at engine ~time:sent (fun () -> Link.send link (dgram 10))
  done;
  ignore stats;
  Engine.run engine;
  Alcotest.(check int) "all delivered" 2000 (Link.delivered link)

let link_dynamic_rate () =
  let engine = Engine.create () in
  let arrivals = ref [] in
  let link =
    Link.create engine (Rng.create 1)
      { Link.default with rate_bps = infinity; propagation_ns = 0 }
      ~sink:(fun _ -> arrivals := Engine.now engine :: !arrivals)
  in
  Link.send link (dgram 958);
  Engine.run engine;
  Link.set_rate link 1e6;
  Link.send link (dgram 958);
  Engine.run engine;
  match List.rev !arrivals with
  | [ first; second ] ->
      Alcotest.(check int) "infinite rate instant" 0 first;
      Alcotest.(check int) "throttled" 8000000 second
  | _ -> Alcotest.fail "expected two arrivals"

(* --- network ---------------------------------------------------------------------- *)

let network_routes () =
  let engine = Engine.create () in
  let net = Network.create engine (Rng.create 1) in
  Network.add_host net ~ip:1 ();
  Network.add_host net ~ip:2 ();
  let got = ref None in
  Network.bind net b (fun d -> got := Some d.Dgram.src);
  Network.send net (dgram 10);
  Engine.run engine;
  Alcotest.(check bool) "delivered with src" true (!got = Some a)

let network_wildcard_bind () =
  let engine = Engine.create () in
  let net = Network.create engine (Rng.create 1) in
  Network.add_host net ~ip:1 ();
  Network.add_host net ~ip:2 ();
  let ports = ref [] in
  Network.bind_host net ~ip:2 (fun d -> ports := d.Dgram.dst.Addr.port :: !ports);
  Network.send net (Dgram.v ~src:a ~dst:(Addr.v 2 1111) (Bytes.create 1));
  Network.send net (Dgram.v ~src:a ~dst:(Addr.v 2 2222) (Bytes.create 1));
  Engine.run engine;
  Alcotest.(check (list int)) "both ports" [ 2222; 1111 ] !ports

let network_exact_beats_wildcard () =
  let engine = Engine.create () in
  let net = Network.create engine (Rng.create 1) in
  Network.add_host net ~ip:1 ();
  Network.add_host net ~ip:2 ();
  let which = ref "" in
  Network.bind_host net ~ip:2 (fun _ -> which := "wildcard");
  Network.bind net b (fun _ -> which := "exact");
  Network.send net (dgram 5);
  Engine.run engine;
  Alcotest.(check string) "exact wins" "exact" !which

let network_unknown_host () =
  let engine = Engine.create () in
  let net = Network.create engine (Rng.create 1) in
  Network.add_host net ~ip:1 ();
  Network.send net (dgram 5) (* dst ip 2 not registered *);
  Engine.run engine;
  Alcotest.(check bool) "counted" true (Network.undeliverable net > 0)

(* --- cpu queue --------------------------------------------------------------------- *)

let cpu_config =
  {
    Cpu_queue.cores = 1;
    service_ns_per_packet = 1000;
    service_ns_per_byte = 0;
    spike_probability = 0.0;
    spike_mu = 0.0;
    spike_sigma = 0.1;
    max_queue_delay_ns = 1_000_000;
    wakeup_latency_ns = 0;
  }

let cpu_serializes_work () =
  let engine = Engine.create () in
  let cpu = Cpu_queue.create engine (Rng.create 1) cpu_config in
  let finish = ref [] in
  for _ = 1 to 3 do
    Cpu_queue.submit cpu ~size:100 (fun () -> finish := Engine.now engine :: !finish)
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "sequential on one core" [ 3000; 2000; 1000 ] !finish

let cpu_parallel_cores () =
  let engine = Engine.create () in
  let cpu = Cpu_queue.create engine (Rng.create 1) { cpu_config with cores = 3 } in
  let finish = ref [] in
  for _ = 1 to 3 do
    Cpu_queue.submit cpu ~size:100 (fun () -> finish := Engine.now engine :: !finish)
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "parallel" [ 1000; 1000; 1000 ] !finish

let cpu_overload_drops () =
  let engine = Engine.create () in
  let cpu = Cpu_queue.create engine (Rng.create 1) cpu_config in
  for _ = 1 to 2000 do
    Cpu_queue.submit cpu ~size:10 (fun () -> ())
  done;
  Alcotest.(check bool) "drops when backlog exceeds cap" true (Cpu_queue.dropped cpu > 0);
  Engine.run engine;
  Alcotest.(check int) "rest processed" (2000 - Cpu_queue.dropped cpu) (Cpu_queue.processed cpu)

let cpu_utilization_measure () =
  let engine = Engine.create () in
  let cpu = Cpu_queue.create engine (Rng.create 1) cpu_config in
  (* 500 packets x 1 us over 1 ms = 50% busy *)
  for _ = 1 to 500 do
    Cpu_queue.submit cpu ~size:1 (fun () -> ())
  done;
  Engine.run engine ~until:1_000_000;
  Alcotest.(check (float 0.01)) "utilization" 0.5 (Cpu_queue.utilization cpu)

let cpu_wakeup_latency () =
  let engine = Engine.create () in
  let cpu = Cpu_queue.create engine (Rng.create 1) { cpu_config with wakeup_latency_ns = 5000 } in
  let finish = ref 0 in
  Cpu_queue.submit cpu ~size:1 (fun () -> finish := Engine.now engine);
  Engine.run engine;
  Alcotest.(check int) "service + wakeup" 6000 !finish

let qsuite =
  List.map Fixed_seed.to_alcotest
    [
      prop_eventq_sorted;
      prop_eventq_pop_nth0_is_pop;
      prop_eventq_model;
      prop_eventq_engine_legal;
    ]

let () =
  Alcotest.run "netsim"
    [
      ( "eventq",
        [
          Alcotest.test_case "ordering" `Quick eventq_ordering;
          Alcotest.test_case "stable ties" `Quick eventq_stable_ties;
          Alcotest.test_case "ready count" `Quick eventq_ready_count;
          Alcotest.test_case "pop nth" `Quick eventq_pop_nth;
          Alcotest.test_case "heap spill keeps ties" `Quick
            eventq_spill_preserves_ties;
          Alcotest.test_case "rebase keeps ties" `Quick
            eventq_rebase_preserves_ties;
        ] );
      ( "engine",
        [
          Alcotest.test_case "schedule order" `Quick engine_schedule_order;
          Alcotest.test_case "run until" `Quick engine_until;
          Alcotest.test_case "every stops" `Quick engine_every_stops;
          Alcotest.test_case "nested scheduling" `Quick engine_nested_scheduling;
          Alcotest.test_case "rejects past" `Quick engine_rejects_past;
          Alcotest.test_case "chooser permutes ties" `Quick engine_chooser_permutes;
          Alcotest.test_case "chooser default and fallback" `Quick
            engine_chooser_default_and_fallback;
          Alcotest.test_case "fan-out pattern never rebases" `Quick
            engine_fanout_pattern_never_rebases;
        ] );
      ( "link",
        [
          Alcotest.test_case "in-order delivery" `Quick link_delivers_in_order;
          Alcotest.test_case "serialization delay" `Quick link_serialization_delay;
          Alcotest.test_case "loss" `Quick link_loss;
          Alcotest.test_case "queue overflow" `Quick link_queue_overflow;
          Alcotest.test_case "bursty loss" `Quick link_bursty_loss;
          Alcotest.test_case "uniform jitter bounds" `Quick link_uniform_jitter_bounds;
          Alcotest.test_case "heavy-tail jitter" `Quick link_heavy_tail_jitter;
          Alcotest.test_case "dynamic rate" `Quick link_dynamic_rate;
        ] );
      ( "network",
        [
          Alcotest.test_case "routes" `Quick network_routes;
          Alcotest.test_case "wildcard bind" `Quick network_wildcard_bind;
          Alcotest.test_case "exact beats wildcard" `Quick network_exact_beats_wildcard;
          Alcotest.test_case "unknown host" `Quick network_unknown_host;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "serializes work" `Quick cpu_serializes_work;
          Alcotest.test_case "parallel cores" `Quick cpu_parallel_cores;
          Alcotest.test_case "overload drops" `Quick cpu_overload_drops;
          Alcotest.test_case "utilization" `Quick cpu_utilization_measure;
          Alcotest.test_case "wakeup latency" `Quick cpu_wakeup_latency;
        ] );
      ("properties", qsuite);
    ]
