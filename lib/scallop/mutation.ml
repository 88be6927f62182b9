type t =
  | Heal_without_quiesce
  | Corrupt_replay
  | Reverse_batch
  | Exec_while_offline
  | Skip_fencing_check

let all =
  [
    Heal_without_quiesce;
    Corrupt_replay;
    Reverse_batch;
    Exec_while_offline;
    Skip_fencing_check;
  ]

let name = function
  | Heal_without_quiesce -> "heal-without-quiesce"
  | Corrupt_replay -> "corrupt-replay"
  | Reverse_batch -> "reverse-batch"
  | Exec_while_offline -> "exec-while-offline"
  | Skip_fencing_check -> "skip-fencing-check"

let enabled : (t, unit) Hashtbl.t = Hashtbl.create 4

let enable m = Hashtbl.replace enabled m ()
let disable_all () = Hashtbl.reset enabled
let on m = Hashtbl.mem enabled m
