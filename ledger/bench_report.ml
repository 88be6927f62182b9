(* The ledger's one emitter: every metric is printed once as a text line
   [metric workload value unit], and the run ends with one JSON line
   holding the declared metrics. [compare] and [row] read the text lines
   back, so captured stdout is the whole record of a run. *)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

(* Every digit the float carries: %.17g round-trips exactly. *)
let number v = Printf.sprintf "%.17g" v

let line ~workload m = Printf.sprintf "%s %s %s %s" m.name workload (number m.value) m.unit_

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let result_json ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun m ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" (escape m.name)
          (number m.value) (escape m.unit_))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)

(* --- reading text lines back ------------------------------------------------ *)

type row = { r_metric : string; r_workload : string; r_value : float; r_unit : string }

let parse_line l =
  match String.split_on_char ' ' (String.trim l) with
  | [ metric; workload; value; unit_ ] -> (
      match float_of_string_opt value with
      | Some v when metric <> "" && metric.[0] <> '{' ->
          Some { r_metric = metric; r_workload = workload; r_value = v; r_unit = unit_ }
      | Some _ | None -> None)
  | _ -> None

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* One run per file: every regular file of the directory is a captured
   stdout. *)
let read_dir dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (Filename.concat dir)
  |> List.filter (fun p -> not (Sys.is_directory p))
  |> List.map (fun p -> List.filter_map parse_line (read_lines p))

(* --- quantiles -------------------------------------------------------------- *)

(* Python's [statistics.quantiles(values, n=4)] (the default "exclusive"
   method), so the spreads printed here are the ones a reader
   recomputes from the same values. *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "quartiles: empty"
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median values =
  let _, m, _ = quartiles values in
  m

(* Mean of a non-empty sorted sample's values from its [lo]th to its
   [hi]th percentile: a quantile read that does not jump from one
   cluster of values to the next when the quantile falls between
   clusters. *)
let band_mean sorted ~lo ~hi =
  let n = Array.length sorted in
  let i = int_of_float (lo /. 100.0 *. float_of_int n) in
  let j = min n (max (i + 1) (int_of_float (Float.ceil (hi /. 100.0 *. float_of_int n)))) in
  let sum = ref 0.0 in
  for k = i to j - 1 do
    sum := !sum +. sorted.(k)
  done;
  !sum /. float_of_int (j - i)

(* --- a JSON reader, enough for BENCHMARK.json ------------------------------- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec ws () =
    if !pos < n && String.contains " \t\r\n" s.[!pos] then begin
      incr pos;
      ws ()
    end
  in
  let expect c = if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected %c" c) in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then fail "bad escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else Buffer.add_utf_8_uchar b (Uchar.of_int code)
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let num () =
    let start = !pos in
    while !pos < n && String.contains "+-0123456789.eE" s.[!pos] do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> Num v
    | None -> fail "bad number"
  in
  let rec value () =
    ws ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
        incr pos;
        ws ();
        if !pos < n && s.[!pos] = '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec fields acc =
            ws ();
            let k = str () in
            ws ();
            expect ':';
            let v = value () in
            ws ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              fields ((k, v) :: acc)
            end
            else begin
              expect '}';
              Obj (List.rev ((k, v) :: acc))
            end
          in
          fields []
    | '[' ->
        incr pos;
        ws ();
        if !pos < n && s.[!pos] = ']' then begin
          incr pos;
          Arr []
        end
        else
          let rec items acc =
            let v = value () in
            ws ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              items (v :: acc)
            end
            else begin
              expect ']';
              Arr (List.rev (v :: acc))
            end
          in
          items []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> num ()
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing input";
  v

let field k = function
  | Obj kv -> ( match List.assoc_opt k kv with Some v -> v | None -> Null)
  | _ -> Null

let to_list = function Arr l -> l | _ -> []
let to_string = function Str s -> s | _ -> ""
let to_float = function Num f -> Some f | _ -> None

(* The declared metrics: (name, unit, better, bound) in file order. *)
type declared = {
  d_name : string;
  d_unit : string;
  d_higher : bool;
  d_bound : float option;
}

type spec = {
  workloads : string list;
  end_to_end : declared list;
  per_layer : declared list;
}

let read_spec path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = parse_json s in
  let decl d =
    {
      d_name = to_string (field "name" d);
      d_unit = to_string (field "unit" d);
      d_higher = to_string (field "better" d) = "higher";
      d_bound = to_float (field "bound" d);
    }
  in
  {
    workloads = List.map (fun w -> to_string (field "name" w)) (to_list (field "workloads" j));
    end_to_end = List.map decl (to_list (field "end_to_end" j));
    per_layer = List.map decl (to_list (field "per_layer" j));
  }
