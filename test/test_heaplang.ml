(** Language tests: unit tests per construct, substitution laws, and a
    differential property — the big-step interpreter agrees with the
    small-step semantics on random programs. *)

open Heaplang
open Ast

let run_val e =
  match Interp.run e with
  | Interp.Value v -> v
  | Interp.Error m -> Alcotest.failf "runtime error: %s" m
  | Interp.Timeout -> Alcotest.fail "timeout"

let v_int = function Int n -> n | v -> Alcotest.failf "not an int: %a" pp_value v

let test_arith () =
  let open Syntax in
  Alcotest.(check int) "add" 7 (v_int (run_val (int 3 + int 4)));
  Alcotest.(check int) "prec" 11 (v_int (run_val (int 3 + (int 2 * int 4))));
  Alcotest.(check int) "sub" (-1) (v_int (run_val (int 3 - int 4)))

let test_let_lambda () =
  let open Syntax in
  let e = let_ "x" (int 5) (app (lam "y" (var "y" + var "x")) (int 2)) in
  Alcotest.(check int) "closure" 7 (v_int (run_val e))

let test_rec () =
  let open Syntax in
  (* rec fact n = if n <= 0 then 1 else n * fact (n-1) *)
  let fact =
    rec_ "f" "n"
      (if_ (var "n" <= int 0) (int 1) (var "n" * app (var "f") (var "n" - int 1)))
  in
  Alcotest.(check int) "fact 6" 720 (v_int (run_val (app fact (int 6))))

let test_heap_ops () =
  let open Syntax in
  let e =
    let_ "l" (alloc (int 1))
      (seq (store (var "l") (int 42)) (load (var "l")))
  in
  Alcotest.(check int) "store-load" 42 (v_int (run_val e));
  let e2 =
    let_ "l" (alloc (int 0))
      (seq (Faa (var "l", int 5)) (load (var "l")))
  in
  Alcotest.(check int) "faa" 5 (v_int (run_val e2));
  let e3 =
    let_ "l" (alloc (int 0))
      (PairE (Cas (var "l", int 0, int 9), load (var "l")))
  in
  (match run_val e3 with
  | Pair (Bool true, Int 9) -> ()
  | v -> Alcotest.failf "cas: %a" pp_value v);
  let e4 = let_ "l" (alloc (int 0)) (seq (Free (var "l")) (load (var "l"))) in
  match Interp.run e4 with
  | Interp.Error _ -> ()
  | _ -> Alcotest.fail "use-after-free must be a runtime error"

let test_while () =
  let open Syntax in
  let e =
    let_ "i" (alloc (int 0))
      (seq
         (While (load (var "i") < int 10,
                 store (var "i") (load (var "i") + int 1)))
         (load (var "i")))
  in
  Alcotest.(check int) "while counts" 10 (v_int (run_val e))

let test_case () =
  let open Syntax in
  let e = Case (InjLE (int 3), ("a", var "a" + int 1), ("b", var "b")) in
  Alcotest.(check int) "case-l" 4 (v_int (run_val e));
  let e2 = Case (InjRE (int 3), ("a", var "a" + int 1), ("b", var "b")) in
  Alcotest.(check int) "case-r" 3 (v_int (run_val e2))

let test_int_conflation () =
  (* The untyped machine accepts integers in boolean and address
     positions, matching the logic's first-order encoding. *)
  let open Syntax in
  Alcotest.(check int) "if-int" 1
    (v_int (run_val (If (int 7, int 1, int 2))));
  Alcotest.(check int) "if-zero" 2
    (v_int (run_val (If (int 0, int 1, int 2))));
  let e =
    let_ "l" (alloc (int 3))
      (Load (BinOp (Add, Fst (PairE (var "l", int 0)), int 0)))
  in
  ignore e;
  (* address-as-int: store/load through the integer address 0 *)
  let e2 =
    seq (alloc (int 11)) (Load (Val (Int 0)))
  in
  Alcotest.(check int) "load-int-addr" 11 (v_int (run_val e2));
  match Interp.run (Assert (int 3)) with
  | Interp.Value Unit -> ()
  | _ -> Alcotest.fail "assert on nonzero int"

let test_assert_ghost () =
  let open Syntax in
  Alcotest.(check bool) "assert-true" true
    (match Interp.run (Assert (bool true)) with
    | Interp.Value Unit -> true
    | _ -> false);
  (match Interp.run (Assert (bool false)) with
  | Interp.Error _ -> ()
  | _ -> Alcotest.fail "assert false must fail");
  match Interp.run (GhostMark "anything") with
  | Interp.Value Unit -> ()
  | _ -> Alcotest.fail "ghost marks are runtime no-ops"

(* Concurrency: [par] forks, [atomic] is indivisible, and the seeded
   scheduler is deterministic per seed. *)

let racy_incr l by =
  let open Syntax in
  store (Val (Loc l)) (load (Val (Loc l)) + int by)

let par_over_cell ~atomic_sections =
  (* one cell at address 0:
     ref 0; par { #0 <- !#0 + 1 } { #0 <- !#0 + 10 }; !#0 *)
  let open Syntax in
  let wrap e = if atomic_sections then Atomic e else e in
  seq (alloc (int 0))
    (seq
       (Par (wrap (racy_incr 0 1), wrap (racy_incr 0 10)))
       (load (Val (Loc 0))))

let interp_int ?seed e =
  match Interp.run ?seed e with
  | Interp.Value (Int n) -> n
  | r ->
      Alcotest.failf "expected an int, got %s"
        (match r with
        | Interp.Value v -> Fmt.str "%a" pp_value v
        | Interp.Error m -> m
        | Interp.Timeout -> "timeout")

let test_par_atomic () =
  (* par of values joins to unit *)
  (match Interp.run (Par (Val (Int 1), Val (Int 2))) with
  | Interp.Value Unit -> ()
  | _ -> Alcotest.fail "par must join to unit");
  (* the unseeded machine is left-first: no interleaving, no lost
     update even without atomic sections *)
  Alcotest.(check int) "left-first" 11
    (interp_int (par_over_cell ~atomic_sections:false));
  (* atomic sections make both increments land under every seed *)
  List.iter
    (fun seed ->
      Alcotest.(check int)
        (Printf.sprintf "atomic seed=%d" seed)
        11
        (interp_int ~seed (par_over_cell ~atomic_sections:true)))
    [ 1; 2; 3; 4; 5 ];
  (* without atomic sections some interleaving loses an update — the
     scheduler really does interleave *)
  let results =
    List.init 100 (fun i ->
        interp_int ~seed:(i + 1) (par_over_cell ~atomic_sections:false))
  in
  Alcotest.(check bool) "all results are race outcomes" true
    (List.for_all (fun n -> n = 1 || n = 10 || n = 11) results);
  Alcotest.(check bool) "some interleaving loses an update" true
    (List.exists (fun n -> n <> 11) results);
  (* same seed, same schedule, same result *)
  List.iter
    (fun seed ->
      Alcotest.(check int)
        (Printf.sprintf "deterministic seed=%d" seed)
        (interp_int ~seed (par_over_cell ~atomic_sections:false))
        (interp_int ~seed (par_over_cell ~atomic_sections:false)))
    [ 1; 7; 42 ]

let test_stuck () =
  List.iter
    (fun (name, e) ->
      match Interp.run e with
      | Interp.Error _ -> ()
      | _ -> Alcotest.failf "%s should be stuck" name)
    [
      ("unbound", Var "nope");
      ("app-non-fun", App (Val (Int 1), Val (Int 2)));
      ("if-non-bool", If (Val Unit, Val Unit, Val Unit));
      ("fst-non-pair", Fst (Val (Int 1)));
      ("add-bool", BinOp (Add, Val (Bool true), Val (Int 1)));
    ]

(* Integer arithmetic is exact or fails. The logic's integers are
   unbounded, so a result a native [int] cannot hold must never wrap:
   [Interp.run] answers [Error Step.overflow_msg], [Step.step] is
   [Stuck] with the same message, and the kernel's pure step takes no
   step. *)

let arith =
  Alcotest.testable
    (fun ppf -> function
      | `Int n -> Fmt.int ppf n
      | `Overflow -> Fmt.string ppf "overflow"
      | `Undefined -> Fmt.string ppf "undefined")
    ( = )

(** [e] under the interpreter, the small-step machine and the kernel's
    pure step. *)
let surfaces e =
  let of_msg m = if m = Step.overflow_msg then `Overflow else `Undefined in
  ( (match Interp.run e with
    | Interp.Value (Int n) -> `Int n
    | Interp.Error m -> of_msg m
    | _ -> `Undefined),
    (match Step.step { Step.expr = e; heap = Heap.empty } with
    | Step.Next { expr = Val (Int n); _ } -> `Int n
    | Step.Stuck m -> of_msg m
    | _ -> `Undefined),
    match Baselogic.Kernel.pure_head_step e with
    | Some (Val (Int n)) -> `Int n
    | _ -> `Undefined )

(* What [surfaces] must give for the result [r]: the kernel's pure step
   takes no step on any failure. *)
let expect r = (r, r, match r with `Int _ -> r | _ -> `Undefined)

(** The exact result of [a op b] through {!Int_ref}, truncating
    division as OCaml does. *)
let exact op a b =
  match op with
  | (Div | Rem) when b = 0 -> `Undefined
  | _ -> (
      let r =
        match op with
        | Add -> Int_ref.add
        | Sub -> Int_ref.sub
        | Mul -> Int_ref.mul
        | Div -> Int_ref.div
        | _ -> Int_ref.rem
      in
      match r a b with Some n -> `Int n | None -> `Overflow)

let int_ops = [ Add; Sub; Mul; Div; Rem ]
let binop op a b = BinOp (op, Val (Int a), Val (Int b))
let show (op, a, b) = Fmt.str "%d %a %d" a pp_bin_op op b

let test_int_boundaries () =
  let check name e r =
    Alcotest.(check (triple arith arith arith)) name (expect r) (surfaces e)
  in
  let bounds = [ 0; 1; -1; max_int; min_int ] in
  List.iter
    (fun op ->
      List.iter
        (fun a ->
          List.iter
            (fun b -> check (show (op, a, b)) (binop op a b) (exact op a b))
            bounds)
        bounds)
    int_ops;
  List.iter
    (fun (n, r) -> check (Fmt.str "-(%d)" n) (UnOp (Neg, Val (Int n))) r)
    [
      (0, `Int 0); (1, `Int (-1)); (-1, `Int 1); (max_int, `Int (-max_int));
      (min_int, `Overflow);
    ];
  (* fetch-and-add stores its sum through the same checked add *)
  let faa = Syntax.(let_ "l" (alloc (int max_int)) (Faa (var "l", int 1))) in
  Alcotest.(check bool) "faa past max_int (interp, step)" true
    (Interp.run faa = Interp.Error Step.overflow_msg
    && Step.run faa = Step.Error Step.overflow_msg);
  Alcotest.(check bool) "the failure names integer overflow" true
    (String.starts_with ~prefix:"integer overflow" Step.overflow_msg)

let exact_or_overflow =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"int-ops-exact-or-overflow" ~count:2000
       (QCheck.make ~print:show
          QCheck.Gen.(triple (oneofl int_ops) Int_ref.operand Int_ref.operand))
       (fun (op, a, b) -> surfaces (binop op a b) = expect (exact op a b)))

let test_subst () =
  let open Syntax in
  let e = let_ "x" (var "y") (var "x" + var "y") in
  let e' = Subst.subst "y" (Int 3) e in
  Alcotest.(check int) "subst" 6 (v_int (run_val e'));
  (* shadowing: inner binder protects *)
  let e2 = Subst.subst "x" (Int 9) (let_ "x" (int 1) (var "x")) in
  Alcotest.(check int) "shadow" 1 (v_int (run_val e2));
  Alcotest.(check (list string)) "free vars" [ "y" ] (Subst.free_vars e)

let test_close_syms () =
  let open Syntax in
  let e = load (Val (Sym "l")) + Val (Sym "k") in
  let closed =
    Subst.close_expr [ ("k", Int 5) ]
      (Subst.close_expr [ ("l", Loc 0) ] e)
  in
  match
    Interp.run (let_ "r" (alloc (int 2)) (seq (Val Unit) closed))
  with
  | Interp.Value (Int 7) -> ()
  | r ->
      Alcotest.failf "close_syms: %s"
        (match r with
        | Interp.Value v -> Fmt.str "%a" pp_value v
        | Interp.Error m -> m
        | Interp.Timeout -> "timeout")

(* Differential: interpreter ≡ small-step on random programs. *)

let gen_prog : expr QCheck.Gen.t =
  let open QCheck.Gen in
  (* Closed programs over int-valued lets and one heap cell. *)
  let rec go n vars =
    let leaf =
      frequency
        ([ (3, map (fun n -> Val (Int n)) (int_range (-5) 5)) ]
        @
        if vars = [] then [] else [ (3, map (fun x -> Var x) (oneofl vars)) ])
    in
    if n <= 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 3,
            map3
              (fun op a b -> BinOp (op, a, b))
              (oneofl [ Add; Sub; Mul; Le; Eq ])
              (go (n - 1) vars) (go (n - 1) vars) );
          ( 2,
            let x = "v" ^ string_of_int (List.length vars) in
            map2 (fun a b -> Let (x, a, b)) (go (n - 1) vars)
              (go (n - 1) (x :: vars)) );
          ( 2,
            map3
              (fun c a b -> If (BinOp (Le, c, Val (Int 0)), a, b))
              (go (n - 1) vars) (go (n - 1) vars) (go (n - 1) vars) );
          ( 1,
            map2 (fun a b -> Seq (a, b)) (go (n - 1) vars) (go (n - 1) vars) );
          ( 1,
            let x = "l" ^ string_of_int (List.length vars) in
            map2
              (fun v body -> Let (x, Alloc v, body))
              (go (n - 1) vars)
              (map (fun e -> Seq (Store (Var x, e), Load (Var x)))
                 (go (n - 1) vars)) );
        ]
  in
  go 4 []

let rec small_step_run fuel (cfg : Step.cfg) =
  if fuel <= 0 then None
  else
    match Step.step cfg with
    | Step.Done (v, _) -> Some (Ok v)
    | Step.Next cfg -> small_step_run (fuel - 1) cfg
    | Step.Stuck m -> Some (Error m)

let agreement =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"interp-vs-smallstep" ~count:500
       (QCheck.make ~print:(Fmt.str "%a" pp_expr) gen_prog)
       (fun e ->
         let big = Interp.run ~fuel:100_000 e in
         let small =
           small_step_run 100_000 { Step.expr = e; heap = Heap.empty }
         in
         match (big, small) with
         | Interp.Value v1, Some (Ok v2) -> value_equal v1 v2
         | Interp.Error _, Some (Error _) -> true
         | Interp.Timeout, None -> true
         | Interp.Timeout, _ | _, None -> true (* fuel mismatch tolerated *)
         | _ -> false))

(* Differential: on par-free programs the seeded scheduler is inert —
   [run ~seed] agrees with plain sequential [run] for every seed.
   [gen_prog] never emits [Par], so this pins down that the scheduler
   only ever influences interleaving, not evaluation itself. *)

let seeded_agreement =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"seeded-run-is-sequential-without-par"
       ~count:300
       (QCheck.make ~print:(Fmt.str "%a" pp_expr) gen_prog)
       (fun e ->
         let plain = Interp.run ~fuel:100_000 e in
         List.for_all
           (fun seed -> Interp.run ~fuel:100_000 ~seed e = plain)
           [ 1; 2; 3 ]))

(* Parser round-trips: parse, run, compare. *)
let test_parser () =
  let runs src expected =
    match Interp.run (Parser.parse_exn src) with
    | Interp.Value v ->
        Alcotest.(check bool)
          (src ^ " = " ^ Fmt.str "%a" pp_value expected)
          true (value_equal v expected)
    | Interp.Error m -> Alcotest.failf "%s: runtime error %s" src m
    | Interp.Timeout -> Alcotest.failf "%s: timeout" src
  in
  runs "1 + 2 * 3" (Int 7);
  runs "(1 + 2) * 3" (Int 9);
  runs "let x = 4 in x - 1" (Int 3);
  runs "let l = ref 5 in l <- !l + 1; !l" (Int 6);
  runs "if 1 < 2 then 10 else 20" (Int 10);
  runs "let i = ref 0 in while !i < 5 do i <- !i + 1 done; !i" (Int 5);
  runs "(rec f n -> if n <= 1 then 1 else n * f (n - 1)) 5" (Int 120);
  runs "let p = (1, 2) in fst p + snd p" (Int 3);
  runs "let l = ref 0 in (CAS(l, 0, 9), !l)" (Pair (Bool true, Int 9));
  runs "let l = ref 10 in FAA(l, 5) + !l" (Int 25);
  runs "assert (2 == 2); 1" (Int 1);
  runs "ghost step; 7" (Int 7);
  runs "atomic { 1 + 2 }" (Int 3);
  runs "let l = ref 0 in par { atomic { l <- !l + 1 } } { atomic { l <- !l + 2 } }; !l"
    (Int 3);
  (match Parser.parse_exn "par { 1 } { 2 }" with
  | Par (Val (Int 1), Val (Int 2)) -> ()
  | e -> Alcotest.failf "par parse shape: %a" pp_expr e);
  (match Parser.parse_exn "atomic { !?l }" with
  | Atomic (Load (Val (Sym "l"))) -> ()
  | e -> Alcotest.failf "atomic parse shape: %a" pp_expr e);
  runs "let x = 3 in (* a comment *) x" (Int 3);
  (* closures compare physically; check the shape instead *)
  (match Interp.run (Parser.parse_exn "fun x -> x + 1") with
  | Interp.Value (RecV (None, "x", BinOp (Add, Var "x", Val (Int 1)))) -> ()
  | _ -> Alcotest.fail "fun parse shape");
  (* symbols parse into Sym leaves *)
  (match Parser.parse_exn "!?l + ?n" with
  | BinOp (Add, Load (Val (Sym "l")), Val (Sym "n")) -> ()
  | e -> Alcotest.failf "sym parse: %a" pp_expr e);
  (* errors are reported, not crashes *)
  List.iter
    (fun src ->
      match Parser.parse_exn src with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "%S should not parse" src)
    [ "let = 3"; "1 +"; "(1, 2"; "while 1 do 2"; "@" ]

let parser_interp_agreement =
  (* pretty-print a random program, reparse it, and compare runs —
     limited to the constructs whose printed form is re-parseable *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"parse-print-agree" ~count:200
       (QCheck.make ~print:(Fmt.str "%a" pp_expr) gen_prog)
       (fun e ->
         (* The printer's layout for binders is multi-line and not
            grammar-exact, so restrict the round-trip check to pure
            operator/literal trees — which the printer renders fully
            parenthesized. *)
         let rec flat = function
           | Val (Int _) -> true
           | BinOp (_, a, b) -> flat a && flat b
           | UnOp (_, a) -> flat a
           | _ -> false
         in
         if not (flat e) then true
         else
           let src = Fmt.str "%a" pp_expr e in
           match Parser.parse_exn src with
           | e' -> Interp.run e = Interp.run e'
           | exception Failure _ -> false))

let () =
  Alcotest.run "heaplang"
    [
      ( "eval",
        [
          Alcotest.test_case "arith" `Quick test_arith;
          Alcotest.test_case "let-lambda" `Quick test_let_lambda;
          Alcotest.test_case "recursion" `Quick test_rec;
          Alcotest.test_case "heap-ops" `Quick test_heap_ops;
          Alcotest.test_case "while" `Quick test_while;
          Alcotest.test_case "case" `Quick test_case;
          Alcotest.test_case "assert-ghost" `Quick test_assert_ghost;
          Alcotest.test_case "int-conflation" `Quick test_int_conflation;
          Alcotest.test_case "par-atomic" `Quick test_par_atomic;
          Alcotest.test_case "stuck" `Quick test_stuck;
          Alcotest.test_case "int-boundaries" `Quick test_int_boundaries;
          exact_or_overflow;
        ] );
      ( "subst",
        [
          Alcotest.test_case "substitution" `Quick test_subst;
          Alcotest.test_case "close-syms" `Quick test_close_syms;
        ] );
      ( "parser",
        [
          Alcotest.test_case "surface-syntax" `Quick test_parser;
          parser_interp_agreement;
        ] );
      ("differential", [ agreement; seeded_agreement ]);
    ]
