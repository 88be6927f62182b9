type t = {
  forced : int array;
  mutable pos : int;  (** next choice-point index *)
  mutable log : (int * int) list;  (** (chosen, arity), newest first *)
}

let create ?(forced = [||]) () = { forced; pos = 0; log = [] }

let next t ~arity =
  if arity <= 0 then invalid_arg "Choice.next: arity must be positive";
  let k =
    if t.pos < Array.length t.forced then
      let k = t.forced.(t.pos) in
      if k >= 0 && k < arity then k else 0
    else 0
  in
  t.pos <- t.pos + 1;
  t.log <- (k, arity) :: t.log;
  k

let length t = t.pos
let log t = List.rev t.log
let chosen t = Array.of_list (List.rev_map fst t.log)

let to_string seq =
  String.concat "," (List.map string_of_int (Array.to_list seq))

let of_string s =
  match String.trim s with
  | "" -> [||]
  | s ->
      String.split_on_char ',' s
      |> List.map (fun tok ->
             match int_of_string_opt (String.trim tok) with
             | Some k when k >= 0 -> k
             | _ -> invalid_arg "Choice.of_string: not a choice sequence")
      |> Array.of_list
