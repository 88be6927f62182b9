(* md5.exe FILE: print "<hex digest>  FILE", as md5sum does. *)
let () =
  let file = Sys.argv.(1) in
  Printf.printf "%s  %s\n" (Digest.to_hex (Digest.file file)) file
