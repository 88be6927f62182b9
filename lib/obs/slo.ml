type objective =
  | Mouth_to_ear of { threshold_ms : float }
  | Freeze_ratio
  | Loss_ratio

type spec = {
  slo : string;
  objective : objective;
  kinds : Qoe.kind list;
  budget : float;
  long_ns : int;
  short_ns : int;
  fire_burn : float;
}

let sec n = n * 1_000_000_000

(* "p99 mouth-to-ear <= 150 ms" is budget 0.01 over the samples-above-
   threshold fraction; "freeze ratio <= 0.5%" is budget 0.005 over frozen
   time share. Windows are short relative to production SRE practice
   because simulated meetings run tens of seconds, not weeks; the
   long/short ratio (4:1) and the >= 1x-burn double condition are the
   standard multi-window burn-rate shape. *)
let default_specs () =
  [
    {
      slo = "m2e_p99_150ms";
      objective = Mouth_to_ear { threshold_ms = 150.0 };
      kinds = [ Qoe.Video ];
      budget = 0.01;
      long_ns = sec 8;
      short_ns = sec 2;
      fire_burn = 1.0;
    };
    {
      slo = "freeze_ratio_0.5pct";
      objective = Freeze_ratio;
      kinds = [ Qoe.Video ];
      budget = 0.005;
      long_ns = sec 8;
      short_ns = sec 2;
      fire_burn = 1.0;
    };
    {
      slo = "loss_ratio_1pct";
      objective = Loss_ratio;
      kinds = [ Qoe.Video; Qoe.Audio ];
      budget = 0.01;
      long_ns = sec 8;
      short_ns = sec 2;
      fire_burn = 1.0;
    };
  ]

type alert = {
  a_slo : string;
  a_key : Qoe.key;
  a_at_ns : int;
  a_burn_long : float;
  a_burn_short : float;
  a_from_ns : int;  (** long-window start — the attribution window *)
  a_until_ns : int;
}

type t = {
  specs : spec list;
  mutable fired : alert list;  (* newest first *)
  active : (string * Qoe.key, unit) Hashtbl.t;
  counters : (string, Metrics.counter) Hashtbl.t;
}

let create ?(specs = default_specs ()) () =
  let counters = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if not (Hashtbl.mem counters s.slo) then
        Hashtbl.replace counters s.slo
          (Metrics.counter ~labels:[ ("slo", s.slo) ]
             ~help:"SLO burn-rate alerts fired" "scallop_slo_alerts_total"))
    specs;
  { specs; fired = []; active = Hashtbl.create 16; counters }

let bad_fraction spec q ~from_ns ~until_ns =
  match spec.objective with
  | Mouth_to_ear { threshold_ms } ->
      Qoe.m2e_bad_fraction_between q ~from_ns ~until_ns ~threshold_ms
  | Freeze_ratio -> Qoe.freeze_ratio_between q ~from_ns ~until_ns
  | Loss_ratio -> Qoe.loss_ratio_between q ~from_ns ~until_ns

let burn_rates ~now_ns q spec =
  let window w =
    bad_fraction spec q ~from_ns:(Stdlib.max 0 (now_ns - w)) ~until_ns:now_ns
  in
  match (window spec.long_ns, window spec.short_ns) with
  | Some long, Some short -> Some (long /. spec.budget, short /. spec.budget)
  | _ -> None

let evaluate t ~now_ns =
  let fresh = ref [] in
  List.iter
    (fun spec ->
      List.iter
        (fun q ->
          let key = Qoe.key_of q in
          if List.mem key.Qoe.k_kind spec.kinds then
            match burn_rates ~now_ns q spec with
            | None -> ()
            | Some (burn_long, burn_short) ->
                let burning =
                  burn_long >= spec.fire_burn && burn_short >= spec.fire_burn
                in
                let akey = (spec.slo, key) in
                if burning && not (Hashtbl.mem t.active akey) then begin
                  Hashtbl.replace t.active akey ();
                  (match Hashtbl.find_opt t.counters spec.slo with
                  | Some c -> Metrics.incr c
                  | None -> ());
                  let alert =
                    {
                      a_slo = spec.slo;
                      a_key = key;
                      a_at_ns = now_ns;
                      a_burn_long = burn_long;
                      a_burn_short = burn_short;
                      a_from_ns = Stdlib.max 0 (now_ns - spec.long_ns);
                      a_until_ns = now_ns;
                    }
                  in
                  t.fired <- alert :: t.fired;
                  fresh := alert :: !fresh
                end
                else if not burning then Hashtbl.remove t.active akey)
        (Qoe.all ()))
    t.specs;
  List.rev !fresh

let alerts t = List.rev t.fired

let alert_str a =
  Printf.sprintf "SLO %s burning on %s: burn %.1fx/%.1fx (long/short) at %.3fs"
    a.a_slo (Qoe.key_str a.a_key) a.a_burn_long a.a_burn_short
    (float_of_int a.a_at_ns /. 1e9)
