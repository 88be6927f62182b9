module Stats = Scallop_util.Stats
module Json = Scallop_util.Json

type counter = { mutable c : int }
type gauge = { mutable g : float }

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of Stats.Histogram.t
  | Callback of (unit -> float)

type entry = { help : string; metric : metric }

(* Keyed by (name, sorted label set); the labels are rendered only when
   dumping. The hash reads up to 64 strings: [Hashtbl.hash] stops after
   ten, which would put entries that differ only in a late label in one
   bucket. *)
module Key = struct
  type t = string * (string * string) list

  let equal = ( = )
  let hash = Hashtbl.hash_param 64 256
end

module Registry = Hashtbl.Make (Key)

let registry : entry Registry.t = Registry.create 64

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> k ^ "=\"" ^ String.escaped v ^ "\"") labels)
      ^ "}"

let register ?(labels = []) ?(help = "") name metric =
  Registry.replace registry (name, List.sort compare labels) { help; metric }

let counter ?labels ?help name =
  let c = { c = 0 } in
  register ?labels ?help name (Counter c);
  c

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let value c = c.c

let gauge ?labels ?help name =
  let g = { g = 0.0 } in
  register ?labels ?help name (Gauge g);
  g

let set g v = g.g <- v

let histogram ?labels ?help ?bounds name =
  let h = Stats.Histogram.create ?bounds () in
  register ?labels ?help name (Histogram h);
  h

let register_callback ?labels ?help name f = register ?labels ?help name (Callback f)

let read ?(labels = []) name =
  match Registry.find_opt registry (name, List.sort compare labels) with
  | Some { metric = Counter c; _ } -> c.c
  | Some { metric = Callback f; _ } -> int_of_float (f ())
  | Some { metric = Gauge _ | Histogram _; _ } ->
      invalid_arg ("Metrics.read: not a counter or callback: " ^ name ^ render_labels labels)
  | None -> invalid_arg ("Metrics.read: no series " ^ name ^ render_labels labels)

(* Adopt a histogram the caller already owns (and keeps observing into)
   instead of minting a fresh zeroed one like {!histogram} does. *)
let register_histogram ?labels ?help name h = register ?labels ?help name (Histogram h)

(* Families whose series another module's own table holds: rendered
   from it at dump time, so a series costs nothing until dumped. *)
type sample = Value of float | Distribution of Stats.Histogram.t

type family = { f_help : string; f_samples : unit -> ((string * string) list * sample) list }

let families : (string, family) Hashtbl.t = Hashtbl.create 8

let register_family ~help name samples =
  Hashtbl.replace families name { f_help = help; f_samples = samples }

let reset () = Registry.reset registry

(* %.17g round-trips every float but prints integers as integers via the
   shortest-representation check below; keep it simple and deterministic. *)
let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let sorted_entries () =
  let entries =
    Registry.fold
      (fun (name, labels) e acc -> ((name, render_labels labels), e) :: acc)
      registry []
  in
  Hashtbl.fold
    (fun name f acc ->
      List.fold_left
        (fun acc (labels, sample) ->
          let metric =
            match sample with Value v -> Gauge { g = v } | Distribution h -> Histogram h
          in
          ((name, render_labels (List.sort compare labels)), { help = f.f_help; metric }) :: acc)
        acc (f.f_samples ()))
    families entries
  |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)

let dump () =
  let b = Buffer.create 1024 in
  let last_name = ref "" in
  List.iter
    (fun ((name, labels), e) ->
      if name <> !last_name then begin
        last_name := name;
        if e.help <> "" then Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name e.help);
        let ty =
          match e.metric with
          | Counter _ -> "counter"
          | Gauge _ | Callback _ -> "gauge"
          | Histogram _ -> "histogram"
        in
        Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name ty)
      end;
      match e.metric with
      | Counter c -> Buffer.add_string b (Printf.sprintf "%s%s %d\n" name labels c.c)
      | Gauge g -> Buffer.add_string b (Printf.sprintf "%s%s %s\n" name labels (float_str g.g))
      | Callback f -> Buffer.add_string b (Printf.sprintf "%s%s %s\n" name labels (float_str (f ())))
      | Histogram h ->
          let label_prefix =
            if labels = "" then "{" else String.sub labels 0 (String.length labels - 1) ^ ","
          in
          Stats.Histogram.iter_buckets h (fun ~le ~count ->
              let le_str = if le = infinity then "+Inf" else float_str le in
              Buffer.add_string b
                (Printf.sprintf "%s_bucket%sle=\"%s\"} %d\n" name label_prefix le_str count));
          Buffer.add_string b
            (Printf.sprintf "%s_sum%s %s\n" name labels (float_str (Stats.Histogram.sum h)));
          Buffer.add_string b
            (Printf.sprintf "%s_count%s %d\n" name labels (Stats.Histogram.count h)))
    (sorted_entries ());
  Buffer.contents b

let dump_json () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{";
  let first = ref true in
  List.iter
    (fun ((name, labels), e) ->
      if !first then first := false else Buffer.add_string b ",";
      Buffer.add_string b (Printf.sprintf "\n  \"%s\": " (Json.escape (name ^ labels)));
      match e.metric with
      | Counter c -> Buffer.add_string b (string_of_int c.c)
      | Gauge g -> Buffer.add_string b (float_str g.g)
      | Callback f -> Buffer.add_string b (float_str (f ()))
      | Histogram h ->
          (* Cumulative buckets in the JSON too, mirroring the Prometheus
             text form, so offline consumers can re-derive any quantile.
             [le] is a string because JSON has no Infinity literal. *)
          let buckets = Buffer.create 256 in
          let first_b = ref true in
          Stats.Histogram.iter_buckets h (fun ~le ~count ->
              if count > 0 then begin
                if !first_b then first_b := false else Buffer.add_string buckets ", ";
                let le_str = if le = infinity then "+Inf" else float_str le in
                Buffer.add_string buckets (Printf.sprintf "[\"%s\", %d]" le_str count)
              end);
          if Stats.Histogram.count h = 0 then
            Buffer.add_string b "{\"count\": 0, \"sum\": 0, \"buckets\": []}"
          else
            Buffer.add_string b
              (Printf.sprintf
                 "{\"count\": %d, \"sum\": %s, \"p50\": %s, \"p99\": %s, \"buckets\": [%s]}"
                 (Stats.Histogram.count h)
                 (float_str (Stats.Histogram.sum h))
                 (float_str (Stats.Histogram.percentile h 50.0))
                 (float_str (Stats.Histogram.percentile h 99.0))
                 (Buffer.contents buckets)))
    (sorted_entries ());
  Buffer.add_string b "\n}\n";
  Buffer.contents b
