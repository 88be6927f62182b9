(* QCheck properties registered with Alcotest from one fixed seed, so that
   every tier-1 run draws the same cases and a failure seen once comes
   back on the next run. QCHECK_SEED overrides the seed; the fuzz alias
   (test/fuzz.ml) sweeps it. *)

let seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | None -> 0
  | Some s -> (
      match int_of_string_opt s with
      | Some n -> n
      | None -> invalid_arg ("QCHECK_SEED is not an integer: " ^ s))

let to_alcotest ?verbose t =
  QCheck_alcotest.to_alcotest ?verbose ~rand:(Random.State.make [| seed |]) t
