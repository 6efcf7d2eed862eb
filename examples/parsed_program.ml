(** Textual front-end: write the program as a string, parse it, verify
    it, run it.

    Run with: dune exec examples/parsed_program.exe *)

module A = Baselogic.Assertion
module T = Smt.Term
module HL = Heaplang.Ast
module V = Verifier.Exec

(* The source, spec, and procedure live in the {!Suite.Examples}
   registry (as [absdiff]), where [daenerys lint] sweeps them too. *)
let src = Suite.Examples.absdiff_src

let () =
  Fmt.pr "== parsed program ==@.source:%s@." src;
  let proc = Suite.Examples.absdiff_proc in
  let body = proc.V.body in
  Fmt.pr "parsed:@.  @[%a@]@.@." HL.pp_expr body;
  (match V.verify_proc Suite.Examples.absdiff proc with
  | V.Verified -> Fmt.pr "verifier: VERIFIED@."
  | o -> Fmt.pr "verifier: %a@." V.pp_outcome o);
  let closed =
    Heaplang.Subst.close_expr [ ("a", HL.Loc 0); ("b", HL.Loc 1) ] body
  in
  let main =
    HL.Seq
      ( HL.Alloc (HL.Val (HL.Int 3)),
        HL.Seq (HL.Alloc (HL.Val (HL.Int 10)), closed) )
  in
  match Heaplang.Step.run main with
  | Heaplang.Step.Value (v, _) ->
      Fmt.pr "run (a=3, b=10): %a@." HL.pp_value v
  | Heaplang.Step.Error m -> Fmt.pr "error: %s@." m
  | Heaplang.Step.Timeout -> Fmt.pr "timeout@."
