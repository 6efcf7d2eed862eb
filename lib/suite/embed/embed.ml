(* Print an OCaml module binding each file named on the command line,
   by basename, to its bytes: [let files = [ ("swap.hl", "..."); ... ]]. *)
let () =
  print_string "let files = [\n";
  Array.iteri
    (fun i path ->
      if i > 0 then
        Printf.printf "  (%S, %S);\n" (Filename.basename path)
          (In_channel.with_open_bin path In_channel.input_all))
    Sys.argv;
  print_string "]\n"
