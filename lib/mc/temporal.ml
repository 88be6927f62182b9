module Trace = Scallop_obs.Trace

type violation = {
  v_rule : string;
  v_detail : string;
  v_ts : int;
  v_events : int list;
}

let pp_violation ppf v =
  Format.fprintf ppf "[%s] t=%dns %s (events %s)" v.v_rule v.v_ts v.v_detail
    (String.concat "," (List.map string_of_int v.v_events))

type rule = {
  r_step : idx:int -> Trace.event -> violation list;
  r_final : now:int -> violation list;
}

let make ~step ~final = { r_step = step; r_final = final }

(* --- event accessors --- *)

let is (ev : Trace.event) name = String.equal ev.name name

let arg_i (ev : Trace.event) key =
  match List.assoc_opt key ev.args with
  | Some (Trace.I n) -> Some n
  | _ -> None

let arg_s (ev : Trace.event) key =
  match List.assoc_opt key ev.args with
  | Some (Trace.S s) -> Some s
  | Some (Trace.I n) -> Some (string_of_int n)
  | None -> None

(* --- combinators --- *)

let always ~name pred =
  let step ~idx (ev : Trace.event) =
    match pred ~idx ev with
    | None -> []
    | Some detail ->
        [ { v_rule = name; v_detail = detail; v_ts = ev.ts; v_events = [ idx ] } ]
  in
  make ~step ~final:(fun ~now:_ -> [])

let eventually ~name ~trigger ~satisfy =
  let open_obs : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  let step ~idx (ev : Trace.event) =
    (match satisfy ev with
    | Some key -> Hashtbl.remove open_obs key
    | None -> ());
    (match trigger ev with
    | Some key -> Hashtbl.replace open_obs key (idx, ev.ts)
    | None -> ());
    []
  in
  let final ~now =
    Hashtbl.fold
      (fun key (idx, ts) acc ->
        {
          v_rule = name;
          v_detail =
            Printf.sprintf "obligation %S opened at t=%dns never satisfied" key
              ts;
          v_ts = now;
          v_events = [ idx ];
        }
        :: acc)
      open_obs []
    |> List.sort (fun a b -> compare a.v_events b.v_events)
  in
  make ~step ~final

let precedes ~name ~first ~then_ =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let step ~idx (ev : Trace.event) =
    let out =
      match then_ ev with
      | Some key when not (Hashtbl.mem seen key) ->
          [
            {
              v_rule = name;
              v_detail =
                Printf.sprintf "%S occurred with no preceding enabling event"
                  key;
              v_ts = ev.ts;
              v_events = [ idx ];
            };
          ]
      | _ -> []
    in
    (match first ev with
    | Some key -> Hashtbl.replace seen key ()
    | None -> ());
    out
  in
  make ~step ~final:(fun ~now:_ -> [])

(* --- checker engine --- *)

type checker = {
  rules : rule list;
  mutable idx : int;
  mutable viols : violation list;  (** newest first *)
}

(* stored step-violations are capped so a badly broken run cannot
   accumulate unbounded reports *)
let max_violations = 256

let create rules = { rules; idx = 0; viols = [] }

let feed c ev =
  let idx = c.idx in
  c.idx <- idx + 1;
  List.iter
    (fun r ->
      match r.r_step ~idx ev with
      | [] -> ()
      | vs ->
          if List.length c.viols < max_violations then
            c.viols <- List.rev_append vs c.viols)
    c.rules

let attach c = Trace.set_listener (Some (feed c))
let detach () = Trace.set_listener None
let events_seen c = c.idx
let violations c = List.rev c.viols

let finish ?(now = 0) c =
  let finals = List.concat_map (fun r -> r.r_final ~now) c.rules in
  violations c @ finals
