type bound = Open of float | Closed of float

type 'r t = {
  figure : string;
  what : string;
  paper : string;
  measure : 'r -> float;
  show : float -> string;  (** the measured value *)
  show_bound : float -> string;
  lo : bound option;
  hi : bound option;
}

let make ~show ?(show_bound = show) ?gt ?ge ?lt ?le ?eq figure what ~paper measure =
  let side strict loose =
    match (strict, loose, eq) with
    | Some v, _, _ -> Some (Open v)
    | None, Some v, _ | None, None, Some v -> Some (Closed v)
    | None, None, None -> None
  in
  let lo = side gt ge and hi = side lt le in
  if lo = None && hi = None then invalid_arg ("Claim: no range for " ^ what);
  { figure; what; paper; measure; show; show_bound; lo; hi }

let float ?(decimals = 2) =
  make ~show:(Printf.sprintf "%.*f" decimals) ~show_bound:(Printf.sprintf "%g")

let int ?gt ?ge ?lt ?le ?eq figure what ~paper measure =
  let f = Option.map float_of_int in
  make ~show:(Printf.sprintf "%.0f") ?gt:(f gt) ?ge:(f ge) ?lt:(f lt) ?le:(f le) ?eq:(f eq)
    figure what ~paper (fun r -> float_of_int (measure r))

let holds figure what ~paper measure =
  make ~show:(fun x -> string_of_bool (x = 1.0)) ~eq:1.0 figure what ~paper
    (fun r -> if measure r then 1.0 else 0.0)

let describe c = c.what ^ ": " ^ c.paper

let within c x =
  (match c.lo with None -> true | Some (Open v) -> x > v | Some (Closed v) -> x >= v)
  && match c.hi with None -> true | Some (Open v) -> x < v | Some (Closed v) -> x <= v

let range c =
  let v = function Open v | Closed v -> c.show_bound v in
  match (c.lo, c.hi) with
  | Some (Closed a), Some (Closed b) when a = b -> "= " ^ c.show_bound a
  | Some (Open _ as b), None -> "> " ^ v b
  | Some (Closed _ as b), None -> ">= " ^ v b
  | None, Some (Open _ as b) -> "< " ^ v b
  | None, Some (Closed _ as b) -> "<= " ^ v b
  | Some lo, Some hi ->
      Printf.sprintf "%s%s, %s%s"
        (match lo with Open _ -> "(" | Closed _ -> "[")
        (v lo) (v hi)
        (match hi with Open _ -> ")" | Closed _ -> "]")
  | None, None -> assert false

type row = { figure : string; what : string; paper : string; measured : string;
             range : string; ok : bool }

let check claims r =
  List.map
    (fun (c : _ t) ->
      let x = c.measure r in
      { figure = c.figure; what = c.what; paper = c.paper; measured = c.show x;
        range = range c; ok = within c x })
    claims

let line row =
  Printf.sprintf "%-4s [%s] %s = %s, range %s; paper: %s"
    (if row.ok then "ok" else "FAIL")
    row.figure row.what row.measured row.range row.paper

let print rows =
  List.iter (fun row -> print_endline (line row)) rows;
  print_newline ();
  List.for_all (fun row -> row.ok) rows
