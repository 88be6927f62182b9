(** Bounded systematic exploration of the scenario's schedule space.

    Iterative-deepening DFS over choice-sequence prefixes: the root is
    the all-defaults (production) schedule; successors bump one decision
    beyond the current prefix to each non-default alternative. Two
    prunes keep the walk tractable:

    - {b state-hash}: a run whose end-state hash
      ({!Scallop_analysis.state_hash}) was already visited in this
      deepening pass is not expanded — it converged to a known state;
    - {b memo}: outcomes are cached by prefix, so deepening passes never
      re-simulate a schedule they already ran.

    The search stops at the first {!Scenario.failed} outcome, returning
    it with its full choice log — a replayable counterexample. *)

type budget = {
  b_max_runs : int;  (** total schedule simulations allowed *)
  b_max_depth : int;  (** deepest choice position ever branched on *)
  b_initial_depth : int;  (** first deepening pass's depth bound *)
}

val default_budget : budget
(** 160 runs, depths 8 -> 16 -> 24. *)

type stats = {
  s_runs : int;  (** schedules actually simulated *)
  s_memo_hits : int;
  s_pruned : int;  (** runs not expanded (converged end state) *)
  s_states : int;  (** distinct end-state hashes, last pass *)
  s_deepest : int;  (** deepest choice position branched on *)
}

type result = {
  r_counterexample : Scenario.outcome option;
      (** first failed outcome; its [o_chosen] replays it *)
  r_stats : stats;
}

val search_scenario :
  ?budget:budget ->
  ?config:Scenario.config ->
  unit ->
  result
(** Depth-first search over {!Scenario.run} with the given config. *)
