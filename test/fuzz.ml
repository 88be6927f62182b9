(* The QCheck suites over many seeds, outside tier-1:

     dune build @test/fuzz

   runs each suite named on the command line once per seed 1..SEEDS with
   QCHECK_SEED set (tier-1 runs them at the fixed seed of Fixed_seed).
   Each failing run prints the one command that replays it, and the
   sweep exits nonzero if any run failed.

     fuzz.exe SEEDS SUITE.exe... *)

let () =
  let seeds = int_of_string Sys.argv.(1) in
  let suites = List.tl (List.tl (Array.to_list Sys.argv)) in
  let failures = ref 0 in
  for seed = 1 to seeds do
    List.iter
      (fun exe ->
        let path = if Filename.is_implicit exe then Filename.concat "." exe else exe in
        let run = Printf.sprintf "QCHECK_SEED=%d %s" seed (Filename.quote path) in
        if Sys.command (run ^ " > /dev/null 2>&1") <> 0 then begin
          incr failures;
          Printf.printf "FAIL: QCHECK_SEED=%d dune exec test/%s\n%!" seed
            (Filename.basename exe)
        end)
      suites
  done;
  Printf.printf "fuzz: %d suites x %d seeds, %d failing runs\n" (List.length suites) seeds
    !failures;
  if !failures > 0 then exit 1
