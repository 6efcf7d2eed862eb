(** Quickstart: verify a small program two ways, then run it.

    1. The automated verifier (the paper's system): write a spec with
       heap-dependent assertions, get a yes/no in milliseconds.
    2. The certified baseline: the same triple proved as a kernel
       theorem, one rule at a time.
    3. Execute the verified program on concrete inputs.

    Run with: dune exec examples/quickstart.exe *)

module A = Baselogic.Assertion
module T = Smt.Term
module HL = Heaplang.Ast
module V = Verifier.Exec
module P = Proofmode.Prove

(* The program: increment a cell twice.

     let x = !l in l <- x + 1;
     let y = !l in l <- y + 1;
     !l

   The program, the destabilized spec ([!l = v0 + 2] reads the heap
   directly), and the procedure all live in the {!Suite.Examples}
   registry, where [daenerys lint] sweeps them too. *)
let body = Suite.Examples.incr2_body
let pre = Suite.Examples.incr2_pre
let post = Suite.Examples.incr2_post

let () =
  Fmt.pr "== quickstart: increment twice ==@.";
  Fmt.pr "program:@.  @[%a@]@." HL.pp_expr body;
  Fmt.pr "pre:  %a@." A.pp pre;
  Fmt.pr "post: %a@.@." A.pp post;

  (* 1. Automated verification. *)
  let proc = Suite.Examples.incr2_proc in
  let vstats = Verifier.Vstats.create () in
  Smt.Stats.reset ();
  (match V.verify_proc ~stats:vstats Suite.Examples.incr2 proc with
  | V.Verified -> Fmt.pr "[auto]     VERIFIED (%d obligations, %d SMT queries)@."
                    vstats.Verifier.Vstats.obligations
                    (Smt.Stats.snapshot ()).Smt.Stats.queries
  | o -> Fmt.pr "[auto]     %a@." V.pp_outcome o);

  (* 2. The certified baseline: same triple as a kernel theorem. *)
  Baselogic.Kernel.reset_rule_count ();
  (match P.prove_triple ~pre body "result" post with
  | thm ->
      Fmt.pr "[baseline] PROVED as a kernel theorem (%d rules):@.  @[%a@]@."
        (Baselogic.Kernel.rule_count ())
        Baselogic.Kernel.pp thm
  | exception P.Tactic_error m -> Fmt.pr "[baseline] FAILED: %s@." m);

  (* 3. Run it: the verified program, on a real heap. *)
  let closed = Heaplang.Subst.close_expr [ ("l", HL.Loc 0); ("v0", HL.Int 40) ] body in
  let main = HL.Seq (HL.Alloc (HL.Val (HL.Int 40)), closed) in
  match Heaplang.Step.run main with
  | Heaplang.Step.Value (v, _) -> Fmt.pr "[run]      l starts at 40; result = %a@." HL.pp_value v
  | Heaplang.Step.Error m -> Fmt.pr "[run]      runtime error: %s@." m
  | Heaplang.Step.Timeout -> Fmt.pr "[run]      timeout@."
