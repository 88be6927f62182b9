type budget = {
  b_max_runs : int;
  b_max_depth : int;
  b_initial_depth : int;
}

let default_budget = { b_max_runs = 160; b_max_depth = 24; b_initial_depth = 8 }

type stats = {
  s_runs : int;  (** schedules actually simulated *)
  s_memo_hits : int;
  s_pruned : int;  (** schedules not expanded (converged end state) *)
  s_states : int;  (** distinct end-state hashes *)
  s_deepest : int;  (** deepest choice position branched on *)
}

type result = {
  r_counterexample : Scenario.outcome option;
  r_stats : stats;
}

let prefix_key p = Choice.to_string p

(* Bounded iterative-deepening DFS over choice-sequence prefixes.

   The root is the empty prefix (every decision defaults to 0, the
   production schedule). A run's successors are single-decision bumps:
   for each choice position [i] beyond the run's forced prefix and below
   the depth bound, and each non-default alternative [k] at that
   position's recorded arity, the prefix [chosen[0..i-1] @ [k]]. This
   enumerates the choice tree without duplicates. Runs whose end-state
   hash was already seen are not expanded (they converged to a visited
   state); a memo table keeps deepening passes from re-simulating
   prefixes they already ran. *)
let search ?(budget = default_budget) ~run () =
  let memo : (string, Scenario.outcome) Hashtbl.t = Hashtbl.create 64 in
  let seen_states : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let runs = ref 0 in
  let memo_hits = ref 0 in
  let pruned = ref 0 in
  let deepest = ref 0 in
  let counterexample = ref None in
  let exception Done in
  let execute prefix =
    let key = prefix_key prefix in
    match Hashtbl.find_opt memo key with
    | Some o ->
        incr memo_hits;
        o
    | None ->
        if !runs >= budget.b_max_runs then raise Done;
        incr runs;
        let o = run ~forced:prefix in
        Hashtbl.replace memo key o;
        o
  in
  let rec dfs ~depth prefix =
    let o = execute prefix in
    if Scenario.failed o then begin
      counterexample := Some o;
      raise Done
    end;
    let fresh = not (Hashtbl.mem seen_states o.Scenario.o_state_hash) in
    Hashtbl.replace seen_states o.Scenario.o_state_hash ();
    if fresh then begin
      let log = Array.of_list o.Scenario.o_log in
      let horizon = min (Array.length log) depth in
      for i = Array.length prefix to horizon - 1 do
        let _, arity = log.(i) in
        for k = 1 to arity - 1 do
          if i > !deepest then deepest := i;
          let succ = Array.init (i + 1) (fun j -> if j < i then fst log.(j) else k) in
          dfs ~depth succ
        done
      done
    end
    else incr pruned
  in
  (try
     let depth = ref (min budget.b_initial_depth budget.b_max_depth) in
     let continue = ref true in
     while !continue do
       Hashtbl.reset seen_states;
       dfs ~depth:!depth [||];
       if !depth >= budget.b_max_depth then continue := false
       else depth := min (2 * !depth) budget.b_max_depth
     done
   with Done -> ());
  {
    r_counterexample = !counterexample;
    r_stats =
      {
        s_runs = !runs;
        s_memo_hits = !memo_hits;
        s_pruned = !pruned;
        s_states = Hashtbl.length seen_states;
        s_deepest = !deepest;
      };
  }

let search_scenario ?budget ?(config = Scenario.default) () =
  search ?budget ~run:(fun ~forced -> Scenario.run ~config ~forced ()) ()
