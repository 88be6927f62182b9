type t = { alpha : float; mutable avg : float option }

let create ~alpha =
  if not (alpha > 0.0 && alpha <= 1.0) then
    invalid_arg "Ewma.create: alpha must be in (0, 1]";
  { alpha; avg = None }

let observe t x =
  match t.avg with
  | None -> t.avg <- Some x
  | Some avg -> t.avg <- Some (((1.0 -. t.alpha) *. avg) +. (t.alpha *. x))

let value t =
  match t.avg with
  | Some v -> v
  | None -> invalid_arg "Ewma.value: no observations"

let value_opt t = t.avg
