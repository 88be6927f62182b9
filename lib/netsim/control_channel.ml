module Rng = Scallop_util.Rng

type direction = Fwd | Rev
type verdict = Deliver | Delay of int | Drop

type t = {
  fwd : Link.t;
  rev : Link.t;
  fwd_sink : (Dgram.t -> unit) ref;
  rev_sink : (Dgram.t -> unit) ref;
  interpose : (dir:direction -> Dgram.t -> verdict) option ref;
}

let create engine rng ?(fwd = Link.default) ?(rev = Link.default) () =
  let fwd_sink = ref (fun (_ : Dgram.t) -> ()) in
  let rev_sink = ref (fun (_ : Dgram.t) -> ()) in
  let interpose = ref None in
  (* Deliveries pass through the interposer (when installed) after the
     link has decided to deliver; a [Delay] re-enters the event queue so
     the rescheduled delivery competes in later ready sets. *)
  let admit dir sink d =
    match !interpose with
    | None -> !sink d
    | Some f -> (
        match f ~dir d with
        | Deliver -> !sink d
        | Drop -> ()
        | Delay after ->
            let after = max 0 after in
            Engine.schedule engine ~after (fun () -> !sink d))
  in
  let fwd = Link.create engine (Rng.split rng) fwd ~sink:(admit Fwd fwd_sink) in
  let rev = Link.create engine (Rng.split rng) rev ~sink:(admit Rev rev_sink) in
  { fwd; rev; fwd_sink; rev_sink; interpose }

let set_fwd_sink t f = t.fwd_sink := f
let set_rev_sink t f = t.rev_sink := f
let set_interposer t f = t.interpose := f
let send_fwd t d = Link.send t.fwd d
let send_rev t d = Link.send t.rev d
let fwd_link t = t.fwd
let rev_link t = t.rev
