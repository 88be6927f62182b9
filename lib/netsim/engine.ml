type t = {
  q : (unit -> unit) Eventq.t;
  mutable clock : int;
  mutable chooser : (ready:int -> int) option;
}

let create () =
  let t = { q = Eventq.create (); clock = 0; chooser = None } in
  (* Publish this engine's virtual clock to the tracer so components
     without an engine handle (e.g. the PRE) can stamp events, and its
     queue's rebase count to the registry. Worlds are created one at a
     time; the newest engine owns both. *)
  Scallop_obs.Trace.set_clock (fun () -> t.clock);
  Scallop_obs.Metrics.register_callback "scallop_eventq_rebases"
    ~help:"event-queue pushes that landed below the wheel window and re-homed it"
    (fun () -> float_of_int (Eventq.rebases t.q));
  t
let now t = t.clock
let set_chooser t c = t.chooser <- c

let at t ~time f =
  if time < t.clock then invalid_arg "Engine.at: time in the past";
  Eventq.push t.q ~time f

let schedule t ~after f =
  if after < 0 then invalid_arg "Engine.schedule: negative delay";
  Eventq.push t.q ~time:(t.clock + after) f

let every t ?start ~interval f =
  if interval <= 0 then invalid_arg "Engine.every: interval must be positive";
  let first = match start with Some s -> s | None -> t.clock + interval in
  let rec tick () = if f () then schedule t ~after:interval tick in
  at t ~time:first tick

(* Pop the next event, consulting the chooser when several events are tied
   at the minimum timestamp. With no chooser installed (the default) this
   is exactly [Eventq.pop]: insertion order, byte-identical to the engine's
   historical behavior. *)
let take t =
  match t.chooser with
  | None -> Eventq.pop t.q
  | Some choose -> (
      match Eventq.ready_count t.q with
      | 0 -> None
      | 1 -> Eventq.pop t.q
      | n ->
          let k = choose ~ready:n in
          let k = if k < 0 || k >= n then 0 else k in
          Eventq.pop_nth t.q k)

let run ?until t =
  let fits time = match until with None -> true | Some u -> time <= u in
  let rec loop () =
    match Eventq.peek_time t.q with
    | Some time when fits time ->
        let _, f = Option.get (take t) in
        t.clock <- max t.clock time;
        f ();
        loop ()
    | Some _ | None -> ()
  in
  loop ();
  match until with Some u when u > t.clock -> t.clock <- u | _ -> ()

let step ?until t =
  match Eventq.peek_time t.q with
  | Some time when (match until with None -> true | Some u -> time <= u) ->
      let _, f = Option.get (take t) in
      t.clock <- max t.clock time;
      f ();
      true
  | Some _ | None -> false

let pending t = Eventq.length t.q
let us x = x * 1_000
let ms x = x * 1_000_000
let sec x = int_of_float (x *. 1e9)
