(** Proof-mode tests: end-to-end certified triples, negative cases, and
    the prove-then-run property — a proved program really does satisfy
    its spec when executed on concrete inputs. *)

module A = Baselogic.Assertion
module K = Baselogic.Kernel
module T = Smt.Term
module HL = Heaplang.Ast
module P = Proofmode.Prove

let sym x = HL.Val (HL.Sym x)
let pt l v = A.points_to (T.var l) v

let proves ?invariants ?witnesses ~pre e post =
  match P.prove_triple ?invariants ?witnesses ~pre e "result" post with
  | _ -> true
  | exception P.Tactic_error _ -> false
  | exception K.Rule_error _ -> false

let swap_body =
  HL.Let ("x", HL.Load (sym "l"),
    HL.Let ("y", HL.Load (sym "r"),
      HL.Seq (HL.Store (sym "l", HL.Var "y"), HL.Store (sym "r", HL.Var "x"))))

let test_swap () =
  let pre = A.seps [ pt "l" (T.var "a"); pt "r" (T.var "b") ] in
  let post = A.seps [ pt "l" (T.var "b"); pt "r" (T.var "a") ] in
  Alcotest.(check bool) "swap proves" true (proves ~pre swap_body post);
  Alcotest.(check bool) "wrong post rejected" false
    (proves ~pre swap_body (A.seps [ pt "l" (T.var "a"); pt "r" (T.var "b") ]))

let test_alloc_free () =
  let body =
    HL.Let ("l", HL.Alloc (HL.Val (HL.Int 7)),
      HL.Let ("v", HL.Load (HL.Var "l"),
        HL.Seq (HL.Free (HL.Var "l"), HL.Var "v")))
  in
  Alcotest.(check bool) "alloc-load-free" true
    (proves ~pre:A.Emp body (A.Pure (T.eq (T.var "result") (T.int 7))))

let test_branch () =
  let body =
    HL.Let ("c", HL.BinOp (HL.Lt, sym "a", HL.Val (HL.Int 0)),
      HL.If (HL.Var "c",
             HL.BinOp (HL.Sub, HL.Val (HL.Int 0), sym "a"),
             sym "a"))
  in
  Alcotest.(check bool) "abs" true
    (proves ~pre:A.Emp body (A.Pure (T.ge (T.var "result") (T.int 0))))

let test_assert_tactic () =
  let body =
    HL.Let ("c", HL.BinOp (HL.Le, sym "a", sym "a"),
      HL.Seq (HL.Assert (HL.Var "c"), HL.Val (HL.Int 0)))
  in
  Alcotest.(check bool) "assert provable" true (proves ~pre:A.Emp body A.Emp);
  let bad =
    HL.Let ("c", HL.BinOp (HL.Lt, sym "a", sym "a"),
      HL.Seq (HL.Assert (HL.Var "c"), HL.Val (HL.Int 0)))
  in
  Alcotest.(check bool) "assert unprovable rejected" false
    (proves ~pre:A.Emp bad A.Emp)

let test_faa_tactic () =
  let body = HL.Faa (sym "l", HL.Val (HL.Int 2)) in
  let pre = pt "l" (T.var "v") in
  let post =
    A.Sep (pt "l" (T.add (T.var "v") (T.int 2)),
           A.Pure (T.eq (T.var "result") (T.var "v")))
  in
  Alcotest.(check bool) "faa" true (proves ~pre body post)

let count_loop_test () =
  let deref l = Baselogic.Hterm.deref (T.var l) in
  let body =
    HL.Let ("c", HL.Load (sym "i"),
      HL.Let ("d", HL.BinOp (HL.Add, HL.Var "c", HL.Val (HL.Int 1)),
        HL.Store (sym "i", HL.Var "d")))
  in
  let cond = HL.Let ("c", HL.Load (sym "i"), HL.BinOp (HL.Lt, HL.Var "c", sym "n")) in
  let loop = HL.While (cond, body) in
  let e = HL.Seq (loop, HL.Load (sym "i")) in
  let inv =
    A.Exists ("v",
      A.Sep (pt "i" (T.var "v"),
             A.Pure (T.and_ [ T.le (T.int 0) (T.var "v"); T.le (T.var "v") (T.var "n") ])))
  in
  let pre = A.seps [ pt "i" (T.int 0); A.Pure (T.le (T.int 0) (T.var "n")) ] in
  let post =
    A.Sep (A.Pure (T.eq (T.var "result") (T.var "n")),
           A.Exists ("w", pt "i" (T.var "w")))
  in
  Alcotest.(check bool) "count loop proves" true
    (proves
       ~invariants:[ (loop, { P.inv; guard = Some (T.lt (deref "i") (T.var "n")) }) ]
       ~pre e post);
  (* A wrong invariant must be rejected. *)
  let bad_inv =
    A.Exists ("v", A.Sep (pt "i" (T.var "v"), A.Pure (T.lt (T.var "v") (T.int 0))))
  in
  Alcotest.(check bool) "bad invariant rejected" false
    (proves
       ~invariants:[ (loop, { P.inv = bad_inv; guard = None }) ]
       ~pre e post)

(* The theorem really is about the program: close the symbols with
   concrete values satisfying the pre, run, check the post. *)
let test_prove_then_run () =
  let pre = A.seps [ pt "l" (T.var "a"); pt "r" (T.var "b") ] in
  let post = A.seps [ pt "l" (T.var "b"); pt "r" (T.var "a") ] in
  let thm = P.prove_triple ~pre swap_body "result" post in
  ignore thm;
  (* Concrete instance: l=#0 with 10, r=#1 with 20. *)
  let closed =
    Heaplang.Subst.close_expr [ ("l", HL.Loc 0); ("r", HL.Loc 1) ] swap_body
  in
  let setup =
    HL.Seq (HL.Alloc (HL.Val (HL.Int 10)),
      HL.Seq (HL.Alloc (HL.Val (HL.Int 20)),
        HL.Seq (closed,
          HL.PairE (HL.Load (HL.Val (HL.Loc 0)), HL.Load (HL.Val (HL.Loc 1))))))
  in
  match Heaplang.Step.run setup with
  | Heaplang.Step.Value (HL.Pair (HL.Int 20, HL.Int 10), _) -> ()
  | r ->
      Alcotest.failf "swap ran wrong: %s"
        (match r with
        | Heaplang.Step.Value (v, _) -> Fmt.str "%a" HL.pp_value v
        | Heaplang.Step.Error m -> m
        | Heaplang.Step.Timeout -> "timeout")

let test_anf () =
  let open HL in
  let e = BinOp (Add, BinOp (Mul, Val (Int 2), Val (Int 3)), Val (Int 4)) in
  let a = P.anf e in
  (* semantics preserved *)
  (match Heaplang.Step.run a with
  | Heaplang.Step.Value (Int 10, _) -> ()
  | _ -> Alcotest.fail "anf changed meaning");
  (* structure: operator operands are values/variables *)
  let rec check = function
    | BinOp (_, (Val _ | Var _), (Val _ | Var _)) -> ()
    | Let (_, e1, e2) ->
        check e1;
        check e2
    | Val _ | Var _ -> ()
    | Seq (e1, e2) ->
        check e1;
        check e2
    | e -> Alcotest.failf "not ANF: %a" pp_expr e
  in
  check a

let test_loops_helper () =
  let open HL in
  let w1 = While (Val (Bool false), Val Unit) in
  let e = Seq (w1, Seq (Val Unit, While (Val (Bool false), Val Unit))) in
  Alcotest.(check int) "two loops" 2 (List.length (P.loops e))

let test_rule_counting () =
  K.reset_rule_count ();
  let pre = A.seps [ pt "l" (T.var "a") ] in
  ignore (P.prove_triple ~pre (HL.Load (sym "l")) "result"
            (A.Sep (pt "l" (T.var "a"), A.Pure (T.eq (T.var "result") (T.var "a")))));
  Alcotest.(check bool) "rules counted" true (K.rule_count () > 0)

let () =
  Alcotest.run "proofmode"
    [
      ( "triples",
        [
          Alcotest.test_case "swap" `Quick test_swap;
          Alcotest.test_case "alloc-free" `Quick test_alloc_free;
          Alcotest.test_case "branch" `Quick test_branch;
          Alcotest.test_case "assert" `Quick test_assert_tactic;
          Alcotest.test_case "faa" `Quick test_faa_tactic;
          Alcotest.test_case "count-loop" `Quick count_loop_test;
        ] );
      ( "integration",
        [
          Alcotest.test_case "prove-then-run" `Quick test_prove_then_run;
          Alcotest.test_case "anf" `Quick test_anf;
          Alcotest.test_case "loops" `Quick test_loops_helper;
          Alcotest.test_case "rule-count" `Quick test_rule_counting;
        ] );
    ]
