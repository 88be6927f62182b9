module An = Scallop_analysis

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let int = string_of_int
let bool = string_of_bool
let obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"
let arr items = "[" ^ String.concat "," items ^ "]"

let finding (f : An.finding) =
  obj
    [
      ("severity", str (An.severity_name f.An.severity));
      ("layer", str (An.layer_name f.An.layer));
      ("kind", str (An.kind_name f.An.kind));
      ("subject", str f.An.subject);
      ("explanation", str f.An.explanation);
      ("trace_ids", arr (List.map int f.An.trace_ids));
    ]

let violation (v : Temporal.violation) =
  obj
    [
      ("rule", str v.Temporal.v_rule);
      ("detail", str v.Temporal.v_detail);
      ("ts_ns", int v.Temporal.v_ts);
      ("events", arr (List.map int v.Temporal.v_events));
    ]

let outcome (o : Scenario.outcome) =
  obj
    [
      ("violations", arr (List.map violation o.Scenario.o_violations));
      ("findings", arr (List.map finding o.Scenario.o_findings));
      ("choices", str (Choice.to_string o.Scenario.o_chosen));
      ("choice_points", int (List.length o.Scenario.o_log));
      ("state_hash", int o.Scenario.o_state_hash);
      ("events", int o.Scenario.o_events);
      ("end_ns", int o.Scenario.o_now);
    ]

let explore_report (r : Explore.result) =
  let s = r.Explore.r_stats in
  obj
    [
      ( "counterexample",
        match r.Explore.r_counterexample with
        | None -> "null"
        | Some o -> outcome o );
      ("runs", int s.Explore.s_runs);
      ("memo_hits", int s.Explore.s_memo_hits);
      ("pruned", int s.Explore.s_pruned);
      ("states", int s.Explore.s_states);
      ("deepest", int s.Explore.s_deepest);
    ]
