(** Surface-language tests: every {!Suite.Programs} entry the surface
    can express is exactly the elaboration of the [.hl] file it names,
    and only the two ghost-state entries are built in OCaml;
    diagnostics on surface files carry accurate [file:line:col] spans;
    and the grammar-exact printers round-trip through the parser
    (QCheck) for terms, assertions, and expressions. *)

module S = Heaplang.Surface
module HL = Heaplang.Ast
module V = Verifier.Exec
module Loc = Stdx.Loc

(* ------------------------------------------------------------------ *)
(* Locating the source files: tests run in [_build/default/test], the
   dune deps put [examples/] and [lib/suite/programs/] one level up. *)

let root_dir =
  let rec find d fuel =
    if Sys.file_exists (Filename.concat d "examples/swap.hl") then d
    else if fuel = 0 then Alcotest.fail "examples/ directory not found"
    else find (Filename.concat d Filename.parent_dir_name) (fuel - 1)
  in
  find (Sys.getcwd ()) 5

let examples_dir = Filename.concat root_dir "examples"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let has_substring s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let load name =
  let path = Filename.concat examples_dir name in
  Verifier.Elab.program_of_string ~file:name (read_file path)

(* ------------------------------------------------------------------ *)
(* One source per suite program: each elaborated entry (and stable
   variant) is exactly [Elab] of the file {!Suite.Programs.sources}
   names, read from disk here; the [twins] group keeps one case per
   [examples/] file that backs an entry, and also checks the entry's
   polarity. *)

module Pr = Suite.Programs

let source_program key =
  let stable = Filename.check_suffix key "_stable" in
  let name = if stable then Filename.chop_suffix key "_stable" else key in
  match List.find_opt (fun (e : Pr.entry) -> e.name = name) Pr.all with
  | Some e when stable -> (e, e.stable_variant)
  | Some e -> (e, Some e.prog)
  | None -> Alcotest.failf "source %s names no suite entry" key

let check_source (key, path) =
  let e, got = source_program key in
  let want =
    fst
      (Verifier.Elab.program_of_string ~file:path
         (read_file (Filename.concat root_dir path)))
  in
  Alcotest.(check bool) (key ^ " is Elab of " ^ path) true (got = Some want);
  e

let twins =
  List.filter
    (fun (_, path) -> Filename.dirname path = "examples")
    Pr.sources

let test_twin src () =
  let e = check_source src in
  let all_ok =
    List.for_all (fun (_, o) -> o = V.Verified) (V.verify e.Pr.prog)
  in
  Alcotest.(check bool) (snd src ^ " expected polarity") (not e.expect_fail)
    all_ok

let test_suite_sources () =
  List.iter
    (fun src -> ignore (check_source src))
    (List.filter (fun src -> not (List.mem src twins)) Pr.sources)

let test_ocaml_built () =
  let ocaml_built =
    List.filter_map
      (fun (e : Pr.entry) ->
        if List.mem_assoc e.name Pr.sources then None else Some e.name)
      Pr.all
  in
  Alcotest.(check (list string))
    "entries built as OCaml ASTs" [ "ghost_counter"; "monotone" ] ocaml_built;
  List.iter
    (fun (e : Pr.entry) ->
      if e.stable_variant <> None then
        Alcotest.(check bool)
          (e.name ^ " stable variant has a source")
          true
          (List.mem_assoc (e.name ^ "_stable") Pr.sources))
    Pr.all

(* ------------------------------------------------------------------ *)
(* Diagnostics carry accurate source spans. *)

let test_broken_span () =
  let prog, srcmap = load "broken.hl" in
  let ds =
    Diag.relocate_all srcmap
      (Analysis.analyze_program ~name:"broken.hl" prog)
  in
  let da001 =
    match List.find_opt (fun d -> d.Diag.code = "DA001") ds with
    | Some d -> d
    | None -> Alcotest.fail "broken.hl must produce DA001"
  in
  match da001.Diag.loc.Diag.span with
  | None -> Alcotest.fail "DA001 lost its source span"
  | Some s ->
      (* the requires clause of broken.hl: `requires mystery(l)` *)
      Alcotest.(check string) "file" "broken.hl" s.Loc.file;
      Alcotest.(check int) "line" 6 s.Loc.line;
      Alcotest.(check int) "col" 12 s.Loc.col;
      Alcotest.(check int) "end_col" 22 s.Loc.end_col;
      (* the JSON rendering carries the same span *)
      let j = Diag.to_json da001 in
      Alcotest.(check bool) "json span" true (has_substring j {|"line": 6|});
      Alcotest.(check bool) "json code" true (has_substring j {|"DA001"|})

let test_verify_failure_span () =
  (* A runtime spec error (not just the linter) is re-anchored too:
     a while loop without an invariant trips DA008 inside the
     symbolic executor, at the procedure body site. *)
  let src =
    "procedure spin(l)\n\
    \  requires (exists v. l |-> v)\n\
    \  ensures (exists w. l |-> w)\n\
     {\n\
    \  while 1 do l <- 0 done;\n\
    \  0\n\
     }\n"
  in
  let prog, srcmap =
    Verifier.Elab.program_of_string ~file:"spin.hl" src
  in
  let proc = List.hd prog.V.procs in
  match V.verify_proc ~srcmap prog proc with
  | V.Verified -> Alcotest.fail "spin must not verify without an invariant"
  | V.Failed m ->
      Alcotest.(check bool)
        ("failure message carries the body span: " ^ m)
        true
        (has_substring m "DA008" && has_substring m "spin.hl:4:1")
  | o -> Alcotest.failf "spin: expected a failure, got %a" V.pp_outcome o

(* ------------------------------------------------------------------ *)
(* Located front-end errors. *)

let test_error_locations () =
  (match Heaplang.Parser.parse "let x = in x" with
  | _ -> Alcotest.fail "must not parse"
  | exception Heaplang.Parser.Parse_error (_, l) ->
      Alcotest.(check int) "parse error line" 1 l.Loc.line;
      Alcotest.(check int) "parse error col" 9 l.Loc.col);
  (match Heaplang.Lexer.tokenize "x +\n  @" with
  | _ -> Alcotest.fail "must not lex"
  | exception Heaplang.Lexer.Lex_error (_, l) ->
      Alcotest.(check int) "lex error line" 2 l.Loc.line;
      Alcotest.(check int) "lex error col" 3 l.Loc.col);
  (* spec annotations are rejected outside annotated programs *)
  (match Heaplang.Parser.parse "while true invariant emp do 0 done" with
  | _ -> Alcotest.fail "invariant outside a program must not parse"
  | exception Heaplang.Parser.Parse_error (m, _) ->
      Alcotest.(check bool)
        "message mentions procedure bodies" true
        (has_substring m "procedure bodies"))

(* An integer literal beyond [max_int] is a located lex error spanning
   the literal, never a wrapped value or an escaping [Failure]. *)
let test_literal_out_of_range () =
  Alcotest.(check bool) "max_int lexes" true
    (Heaplang.Lexer.tokenize "4611686018427387903" <> []);
  match Heaplang.Lexer.tokenize "1 +\n  4611686018427387904" with
  | _ -> Alcotest.fail "max_int + 1 must not lex"
  | exception Heaplang.Lexer.Lex_error (m, l) ->
      Alcotest.(check (pair int int)) "line, col" (2, 3) (l.Loc.line, l.Loc.col);
      Alcotest.(check int) "spans the literal" 19 (l.Loc.byte_stop - l.Loc.byte_start);
      Alcotest.(check bool) ("message: " ^ m) true
        (has_substring m "out of range")

let test_match_parse () =
  let e =
    Heaplang.Parser.parse_exn
      "match inl 3 with inl x -> x + 1 | inr y -> y end"
  in
  match e with
  | HL.Case
      ( HL.InjLE (HL.Val (HL.Int 3)),
        ("x", HL.BinOp (HL.Add, HL.Var "x", HL.Val (HL.Int 1))),
        ("y", HL.Var "y") ) ->
      ()
  | e -> Alcotest.failf "unexpected parse: %a" HL.pp_expr e

(* ------------------------------------------------------------------ *)
(* QCheck round-trips: parse (print x) ≡ x. *)

let dummy t : S.term = { S.t; tspan = Loc.dummy }
let dummy_a a : S.assertion = { S.a; aspan = Loc.dummy }

let gen_var = QCheck.Gen.oneofl [ "x"; "y"; "z"; "acc"; "v1" ]

let gen_term : S.term QCheck.Gen.t =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               map (fun i -> dummy (S.TInt i)) small_nat;
               map (fun b -> dummy (S.TBool b)) bool;
               map (fun x -> dummy (S.TVar x)) gen_var;
             ]
         in
         if n = 0 then leaf
         else
           frequency
             [
               (1, leaf);
               (2, map (fun t -> dummy (S.TDeref t)) (self (n / 2)));
               (1, map (fun t -> dummy (S.TNeg t)) (self (n / 2)));
               ( 4,
                 let op =
                   oneofl
                     HL.[ Add; Sub; Mul; Eq; Ne; Lt; Le; Gt; Ge; AndOp; OrOp ]
                 in
                 map3
                   (fun o a b -> dummy (S.TBin (o, a, b)))
                   op (self (n / 2)) (self (n / 2)) );
             ])

let gen_frac =
  QCheck.Gen.(
    oneof
      [
        return None;
        map2
          (fun n d -> Some { S.num = 1 + n; den = 1 + (n mod (d + 1)) + d })
          (int_bound 3) (int_bound 3);
      ])

let gen_assertion : S.assertion QCheck.Gen.t =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let points_to =
           (* left-hand sides that cannot be mistaken for a
              parenthesized assertion or a predicate application *)
           let lhs =
             oneof
               [
                 map (fun x -> dummy (S.TVar x)) gen_var;
                 map (fun x -> dummy (S.TDeref (dummy (S.TVar x)))) gen_var;
               ]
           in
           map3
             (fun alhs afrac arhs ->
               dummy_a (S.APointsTo { alhs; afrac; arhs }))
             lhs gen_frac (gen_term |> map Fun.id)
         in
         let leaf =
           oneof
             [
               return (dummy_a S.AEmp);
               map (fun t -> dummy_a (S.APure t)) gen_term;
               points_to;
               map
                 (fun args -> dummy_a (S.APred ("p", args)))
                 (list_size (int_bound 2) gen_term);
             ]
         in
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               ( 2,
                 map2
                   (fun a b -> dummy_a (S.ASep (a, b)))
                   (self (n / 2)) (self (n / 2)) );
               ( 1,
                 map2
                   (fun a b -> dummy_a (S.AOr (a, b)))
                   (self (n / 2)) (self (n / 2)) );
               (1, map (fun a -> dummy_a (S.AStabilize a)) (self (n / 2)));
               ( 1,
                 map2
                   (fun xs a -> dummy_a (S.AExists (xs, a)))
                   (list_size (int_range 1 2) gen_var)
                   (self (n / 2)) );
             ])

let term_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"term-print-parse" ~count:500
       (QCheck.make ~print:S.term_to_string gen_term)
       (fun t ->
         S.term_equal t (Heaplang.Parser.parse_term (S.term_to_string t))))

let assertion_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"assertion-print-parse" ~count:500
       (QCheck.make ~print:S.assertion_to_string gen_assertion)
       (fun a ->
         S.assertion_equal a
           (Heaplang.Parser.parse_assertion (S.assertion_to_string a))))

(* Expressions: the parseable fragment of Ast.expr (no value literals
   beyond unit/bool/int/sym, no UnOp Not). *)
let gen_expr : HL.expr QCheck.Gen.t =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               map (fun i -> HL.Val (HL.Int i)) small_nat;
               map (fun b -> HL.Val (HL.Bool b)) bool;
               return (HL.Val HL.Unit);
               map (fun x -> HL.Var x) gen_var;
               map (fun x -> HL.Val (HL.Sym x)) gen_var;
               map (fun x -> HL.GhostMark x) gen_var;
             ]
         in
         if n = 0 then leaf
         else
           let s = self (n / 2) in
           frequency
             [
               (2, leaf);
               ( 3,
                 let op =
                   oneofl
                     HL.[ Add; Sub; Mul; Div; Rem; Eq; Ne; Lt; Le; Gt; Ge ]
                 in
                 map3 (fun o a b -> HL.BinOp (o, a, b)) op s s );
               (1, map (fun e -> HL.UnOp (HL.Neg, e)) s);
               (1, map (fun e -> HL.Load e) s);
               (1, map2 (fun l e -> HL.Store (l, e)) s s);
               (1, map (fun e -> HL.Alloc e) s);
               (1, map (fun e -> HL.Free e) s);
               (1, map (fun e -> HL.Assert e) s);
               (1, map3 (fun c a b -> HL.If (c, a, b)) s s s);
               (1, map2 (fun a b -> HL.Seq (a, b)) s s);
               (1, map2 (fun c b -> HL.While (c, b)) s s);
               (1, map3 (fun x a b -> HL.Let (x, a, b)) gen_var s s);
               (1, map2 (fun x b -> HL.Rec (None, x, b)) gen_var s);
               (1, map2 (fun a b -> HL.App (a, b)) (map (fun x -> HL.Var x) gen_var) s);
               (1, map2 (fun a b -> HL.PairE (a, b)) s s);
               (1, map (fun e -> HL.Fst e) s);
               (1, map (fun e -> HL.Snd e) s);
               (1, map (fun e -> HL.InjLE e) s);
               (1, map (fun e -> HL.InjRE e) s);
               ( 1,
                 map3
                   (fun e (x, e1) (y, e2) -> HL.Case (e, (x, e1), (y, e2)))
                   s (pair gen_var s) (pair gen_var s) );
               (1, map3 (fun l a b -> HL.Cas (l, a, b)) s s s);
               (1, map2 (fun l d -> HL.Faa (l, d)) s s);
             ])

let expr_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"expr-print-parse" ~count:500
       (QCheck.make ~print:S.expr_to_string gen_expr)
       (fun e -> Heaplang.Parser.parse (S.expr_to_string e) = e))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "surface"
    [
      ( "twins",
        List.map
          (fun ((_, path) as src) ->
            Alcotest.test_case (Filename.basename path) `Quick (test_twin src))
          twins );
      ( "suite-sources",
        [
          Alcotest.test_case "lib-suite-programs" `Quick test_suite_sources;
          Alcotest.test_case "ocaml-built" `Quick test_ocaml_built;
        ] );
      ( "spans",
        [
          Alcotest.test_case "broken.hl-lint-span" `Quick test_broken_span;
          Alcotest.test_case "broken.hl-verify-span" `Quick
            test_verify_failure_span;
          Alcotest.test_case "error-locations" `Quick test_error_locations;
          Alcotest.test_case "literal-out-of-range" `Quick
            test_literal_out_of_range;
          Alcotest.test_case "match-parse" `Quick test_match_parse;
        ] );
      ( "roundtrip",
        [ term_roundtrip; assertion_roundtrip; expr_roundtrip ] );
    ]
