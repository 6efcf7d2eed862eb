(** Static-analyzer tests.

    - QCheck over the assertion AST: {!Analysis.Stability.verdict}
      agrees with {!Baselogic.Assertion.stable} on every input, and
      each reported escape is a genuine heap read outside the global
      footprint.
    - Deterministic stability explanations: paths, anchors, and the
      fix the suggested ⌊·⌋ placement actually is.
    - The frame lint is branch-aware and respects ambient chunks.
    - The whole suite and the example registry lint clean; every
      ill-formed case produces its annotated codes.
    - Spec-shaped failures route through {!Diag.Spec_error} in the
      executor, so lint-clean programs never reach them.
    - Engine gating: with [config.options.lint], bad programs fail
      without a solver call while good ones still verify.
    - JSON renderer smoke tests. *)

module An = Analysis
module Stab = Analysis.Stability
module Frame = Analysis.Frame
module A = Baselogic.Assertion
module GV = Baselogic.Ghost_val
module HT = Baselogic.Hterm
module T = Smt.Term
module HL = Heaplang.Ast
module V = Verifier.Exec
module St = Verifier.State
module E = Engine
open Stdx

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* QCheck: a sized generator over the assertion AST. Location terms
   are drawn from a small pool so reads sometimes hit and sometimes
   miss the generated points-to chunks. *)

let gen_loc = QCheck.Gen.oneofl [ T.var "l"; T.var "r"; T.var "p" ]

let gen_pure_term =
  let open QCheck.Gen in
  oneof
    [
      map (fun l -> T.eq (HT.deref l) (T.int 5)) gen_loc;
      map2 (fun a b -> T.eq (HT.deref a) (HT.deref b)) gen_loc gen_loc;
      map (fun l -> T.le (T.int 0) (HT.deref l)) gen_loc;
      return (T.eq (T.var "x") (T.int 0));
      return T.tru;
    ]

let gen_assertion =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let base =
           oneof
             [
               map (fun t -> A.Pure t) gen_pure_term;
               return A.Emp;
               map (fun l -> A.points_to l (T.int 7)) gen_loc;
               map (fun l -> A.Pred ("c", [ l ])) gen_loc;
               return (A.Ghost ("γ", GV.Max_nat (T.int 1)));
             ]
         in
         if n <= 0 then base
         else
           let sub = self (n / 2) in
           frequency
             [
               (2, base);
               (3, map2 (fun a b -> A.Sep (a, b)) sub sub);
               (2, map2 (fun a b -> A.And (a, b)) sub sub);
               (2, map2 (fun a b -> A.Or (a, b)) sub sub);
               (1, map2 (fun a b -> A.Wand (a, b)) sub sub);
               (1, map (fun a -> A.Exists ("x", a)) sub);
               (1, map (fun a -> A.Forall ("x", a)) sub);
               (1, map (fun a -> A.Persistently a) sub);
               (1, map (fun a -> A.Later a) sub);
               (1, map (fun a -> A.Upd a) sub);
               (2, map (fun a -> A.Stabilize a) sub);
             ])

let arb_assertion = QCheck.make ~print:A.to_string gen_assertion

(* The analyzer's verdict is definitionally the kernel-side judgment:
   neither stricter nor laxer, on arbitrary assertions. *)
let qcheck_agreement =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"verdict-agrees-with-stable" ~count:500
       arb_assertion (fun a ->
         Stab.verdict a = Stab.Stable = A.stable a))

(* Every escape the explanation names really is a heap read of the
   assertion that the global footprint does not cover. *)
let qcheck_escapes_sound =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"escapes-are-uncovered-heap-reads" ~count:500
       arb_assertion (fun a ->
         match Stab.verdict a with
         | Stab.Stable -> true
         | Stab.Unstable es ->
             let fp = A.footprint [] a in
             let reads = A.heap_reads [] a in
             es <> []
             && List.for_all
                  (fun (e : Stab.escape) ->
                    (not (List.exists (T.equal e.Stab.read) fp))
                    && List.exists (T.equal e.Stab.read) reads)
                  es))

(* ⌊·⌋ at the root stabilizes anything — on both sides of the fence. *)
let qcheck_stabilize_root =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"stabilize-at-root-is-stable" ~count:200
       arb_assertion (fun a ->
         Stab.stable (A.Stabilize a) && A.stable (A.Stabilize a)))

(* ------------------------------------------------------------------ *)
(* QCheck: abstract-interpreter soundness. Closed expressions from the
   executable int fragment run both concretely ({!Heaplang.Interp})
   and abstractly ({!Analysis.Absint.eval_expr}); a terminating
   concrete run must land inside the abstract result — the property
   the verifier's Valid-only pre-discharge rests on. *)

module Dom = An.Domain
module AD = Absdom
module Interp = Heaplang.Interp

let gen_closed_expr =
  let open QCheck.Gen in
  let lit = map (fun i -> HL.Val (HL.Int i)) (int_range (-20) 20) in
  sized_size (int_bound 6)
  @@ fix (fun self n ->
         let leaf = lit in
         if n <= 0 then leaf
         else
           let sub = self (n / 2) in
           let arith op = map2 (fun a b -> HL.BinOp (op, a, b)) sub sub in
           let cmp op = map2 (fun a b -> HL.BinOp (op, a, b)) sub sub in
           frequency
             [
               (2, leaf);
               (3, arith HL.Add);
               (2, arith HL.Sub);
               (1, arith HL.Mul);
               (1, arith HL.Div);
               (1, arith HL.Rem);
               ( 2,
                 map2
                   (fun a b ->
                     HL.Let ("v", a, HL.BinOp (HL.Add, HL.Var "v", b)))
                   sub sub );
               ( 3,
                 map3
                   (fun c a b -> HL.If (c, a, b))
                   (oneof [ cmp HL.Lt; cmp HL.Le; cmp HL.Eq; cmp HL.Ne ])
                   sub sub );
               (1, map2 (fun a b -> HL.Seq (a, b)) sub sub);
               ( 2,
                 (* a ref-cell round trip: locations only ever come
                    from Alloc, so the heap stays well-typed *)
                 map2
                   (fun init upd ->
                     HL.Let
                       ( "r",
                         HL.Alloc init,
                         HL.Seq
                           ( HL.Store (HL.Var "r", upd),
                             HL.Load (HL.Var "r") ) ))
                   sub sub );
               ( 1,
                 (* bounded countdown through the invariant-free
                    join/widen fixpoint *)
                 map
                   (fun k ->
                     HL.Let
                       ( "c",
                         HL.Alloc (HL.Val (HL.Int k)),
                         HL.Seq
                           ( HL.While
                               ( HL.BinOp
                                   ( HL.Gt,
                                     HL.Load (HL.Var "c"),
                                     HL.Val (HL.Int 0) ),
                                 HL.Store
                                   ( HL.Var "c",
                                     HL.BinOp
                                       ( HL.Sub,
                                         HL.Load (HL.Var "c"),
                                         HL.Val (HL.Int 1) ) ) ),
                             HL.Load (HL.Var "c") ) ))
                   (int_range 0 6) );
             ])

let arb_closed_expr =
  QCheck.make ~print:(Fmt.to_to_string HL.pp_expr) gen_closed_expr

(* A terminating concrete run is a concretization of the abstract
   result: the final state is not ⊥, the abstract result term is never
   *refuted* to equal the concrete value, and pinning the result atom
   to the concrete value stays inside γ(env). Faulting or diverging
   runs (division by zero, fuel) constrain nothing. *)
let qcheck_absint_sound =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"abstract-over-approximates-concrete" ~count:500
       arb_closed_expr (fun e ->
         match Interp.run ~fuel:20_000 e with
         | Interp.Error _ | Interp.Timeout -> true
         | Interp.Value v -> (
             let st, t = An.Absint.eval_expr e in
             (not (Dom.is_bot st))
             &&
             match (t, Baselogic.Kernel.value_term v) with
             | Some t, Some cv ->
                 Dom.holds st (T.eq t cv) <> AD.No
                 && AD.satisfies
                      ~lookup:(fun a ->
                        if T.equal a t then
                          match T.view cv with
                          | T.Int_lit n -> Some n
                          | _ -> None
                        else None)
                      st.Dom.env
             | _ -> true)))

(* The discharge property itself: a [Yes] from the abstract domain on
   facts it assumed means the facts entail the formula — the SMT
   solver, given the same facts and the negated formula, must answer
   Unsat. (An abstractly-⊥ environment claims the facts themselves are
   contradictory, which the same call checks.) *)
let gen_lin_term =
  let open QCheck.Gen in
  let v = oneofl [ T.var "x"; T.var "y"; T.var "z" ] in
  map3
    (fun c v k -> T.add (T.mul (T.int c) v) (T.int k))
    (int_range (-3) 3) v (int_range (-10) 10)

let gen_lin_atom =
  let open QCheck.Gen in
  oneof
    [
      map2 T.eq gen_lin_term gen_lin_term;
      map2 T.le gen_lin_term gen_lin_term;
      map2 T.lt gen_lin_term gen_lin_term;
      map (fun (a, b) -> T.not_ (T.le a b))
        (pair gen_lin_term gen_lin_term);
    ]

let arb_discharge =
  QCheck.make
    ~print:(fun (cs, phi) ->
      Fmt.str "facts [%a] ⊢? %a" Fmt.(list ~sep:comma T.pp) cs T.pp phi)
    QCheck.Gen.(pair (list_size (int_bound 4) gen_lin_atom) gen_lin_atom)

let qcheck_discharge_sound =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"absint-valid-implies-smt-valid" ~count:300
       arb_discharge (fun (cs, phi) ->
         let env = List.fold_left (fun e c -> AD.assume c e) AD.top cs in
         if AD.holds env phi = AD.Yes then
           match Smt.Solver.check_sat (T.not_ phi :: cs) with
           | Smt.Solver.Sat _ -> false
           | Smt.Solver.Unsat | Smt.Solver.Unknown
           | Smt.Solver.Resource_out _ ->
               true
         else true))

(* ------------------------------------------------------------------ *)
(* Deterministic stability explanations *)

let l = T.var "l"
let read5 = A.Pure (T.eq (HT.deref l) (T.int 5))

let test_explanations () =
  (match Stab.verdict (A.Sep (read5, A.points_to l (T.int 5))) with
  | Stab.Stable -> ()
  | Stab.Unstable _ -> Alcotest.fail "covered read must be stable");
  (match Stab.verdict read5 with
  | Stab.Unstable [ e ] ->
      Alcotest.(check bool) "read is l" true (T.equal e.Stab.read l);
      Alcotest.(check (list string)) "path" [ "⌜·⌝" ] e.Stab.path;
      Alcotest.(check bool) "no anchor" true (e.Stab.anchor = None)
  | _ -> Alcotest.fail "bare read must have exactly one escape");
  (* [Or] hides its branches from the global footprint; the branch
     that owns the read is the suggested ⌊·⌋ anchor. *)
  (match
     Stab.verdict (A.Or (A.Sep (read5, A.points_to l (T.int 5)), A.Emp))
   with
  | Stab.Unstable [ e ] -> (
      Alcotest.(check (list string))
        "escape path"
        [ "∨"; "∗"; "⌜·⌝" ]
        e.Stab.path;
      match e.Stab.anchor with
      | Some p -> Alcotest.(check (list string)) "anchor" [ "∨" ] p
      | None -> Alcotest.fail "expected a ⌊·⌋ anchor")
  | _ -> Alcotest.fail "Or-hidden footprint must escape exactly once");
  (* … and placing the ⌊·⌋ there fixes it. *)
  match
    Stab.verdict
      (A.Or (A.Stabilize (A.Sep (read5, A.points_to l (T.int 5))), A.Emp))
  with
  | Stab.Stable -> ()
  | Stab.Unstable _ -> Alcotest.fail "⌊·⌋ at the anchor must stabilize"

(* DA011 diags carry the escape path and a hint. *)
let test_da011_diag () =
  let loc = Diag.loc ~unit_name:"u" (Diag.Proc "f") Diag.Requires in
  match Stab.check ~loc read5 with
  | [ d ] ->
      Alcotest.(check string) "code" "DA011" d.Diag.code;
      Alcotest.(check bool) "is error" true (Diag.is_error d);
      Alcotest.(check (list string)) "path" [ "⌜·⌝" ] d.Diag.loc.Diag.path;
      Alcotest.(check bool) "has hint" true (d.Diag.hint <> None)
  | ds -> Alcotest.failf "expected one DA011, got %d" (List.length ds)

(* ------------------------------------------------------------------ *)
(* Frame lint: branch-aware, ambient-aware *)

let test_frame () =
  let loc = Diag.loc (Diag.Proc "f") Diag.Requires in
  (* stable by construction, still unresolvable: the classic ⌊⌜!l=5⌝⌋ *)
  (match Frame.check ~loc ~severity:Diag.Error (A.Stabilize read5) with
  | [ d ] -> Alcotest.(check string) "code" "DA013" d.Diag.code
  | ds -> Alcotest.failf "expected one DA013, got %d" (List.length ds));
  (* only the branch without the chunk is flagged *)
  let branchy =
    A.Or (A.Sep (read5, A.points_to l (T.int 5)), A.Stabilize read5)
  in
  (match Frame.check ~loc ~severity:Diag.Warning branchy with
  | [ d ] -> Alcotest.(check string) "code" "DA013" d.Diag.code
  | ds -> Alcotest.failf "one uncovered branch, got %d" (List.length ds));
  (* ambient chunks (e.g. the requires footprint at an ensures site)
     cover the read *)
  Alcotest.(check int)
    "ambient covers" 0
    (List.length
       (Frame.check ~loc ~severity:Diag.Warning ~ambient:[ l ]
          (A.Stabilize read5)))

(* ------------------------------------------------------------------ *)
(* Whole-program: suite + examples clean, ill-formed suite coded *)

let test_suite_clean () =
  List.iter
    (fun (name, prog) ->
      let ds = An.analyze_program ~name prog in
      if Diag.has_errors ds then
        Alcotest.failf "%s must lint clean:@.%a" name Diag.pp_list
          (Diag.errors ds))
    (List.map
       (fun (e : Suite.Programs.entry) ->
         (e.Suite.Programs.name, e.Suite.Programs.prog))
       Suite.Programs.all
    @ Suite.Examples.all)

let test_ill_formed () =
  List.iter
    (fun (c : Suite.Ill_formed.case) ->
      let ds =
        An.analyze_program ~name:c.Suite.Ill_formed.name
          c.Suite.Ill_formed.prog
      in
      let got = List.map (fun d -> d.Diag.code) ds in
      List.iter
        (fun code ->
          if not (List.mem code got) then
            Alcotest.failf "%s: expected %s, got [%s]"
              c.Suite.Ill_formed.name code (String.concat " " got))
        c.Suite.Ill_formed.codes)
    Suite.Ill_formed.all

(* The acceptance property: a lint-clean program cannot reach a
   spec-shaped [fail] in the symbolic executor — all its failures (if
   any) are semantic, never DA-coded. *)
let test_clean_never_spec_fails () =
  List.iter
    (fun (e : Suite.Programs.entry) ->
      if An.ok (An.analyze_program ~name:e.name e.prog) then
        List.iter
          (fun (p, o) ->
            match o with
            | V.Verified | V.Timeout _ | V.Resource_out _ | V.Crashed _ -> ()
            | V.Failed m ->
                if contains ~sub:"DA0" m then
                  Alcotest.failf "%s/%s: lint-clean yet spec-error: %s"
                    e.name p m)
          (V.verify e.prog))
    Suite.Programs.all

(* ------------------------------------------------------------------ *)
(* Spec_error routing through the executor *)

let proc ?(params = []) ?(requires = A.Emp) ?(ensures = A.Emp)
    ?(body = HL.Val HL.Unit) ?(invariants = []) ?(ghost = []) pname =
  { V.pname; params; requires; ensures; body; invariants; ghost }

let failed_with code prog p =
  match V.verify_proc prog p with
  | V.Failed m ->
      Alcotest.(check bool) (code ^ " in message") true (contains ~sub:code m)
  | o -> Alcotest.failf "expected a %s failure, got %a" code V.pp_outcome o

let test_spec_error_routing () =
  (* DA001: ghost fold of an unknown predicate *)
  let p =
    proc ~body:(HL.GhostMark "f")
      ~ghost:[ ("f", [ V.Fold ("nope", []) ]) ]
      "p"
  in
  failed_with "DA001" { V.procs = [ p ]; preds = Smap.empty; invs = [] } p;
  (* DA003: unknown procedure *)
  let p = proc ~body:(HL.App (HL.Var "nosuch", HL.Val (HL.Int 1))) "p" in
  failed_with "DA003" { V.procs = [ p ]; preds = Smap.empty; invs = [] } p;
  (* DA004: arity mismatch at a call site *)
  let callee = proc ~params:[ "a"; "b" ] "callee" in
  let p = proc ~body:(HL.App (HL.Var "callee", HL.Val (HL.Int 1))) "p" in
  failed_with "DA004" { V.procs = [ callee; p ]; preds = Smap.empty; invs = [] } p;
  (* DA008: while without invariant *)
  let p =
    proc ~body:(HL.While (HL.Val (HL.Bool false), HL.Val HL.Unit)) "p"
  in
  failed_with "DA008" { V.procs = [ p ]; preds = Smap.empty; invs = [] } p;
  (* DA009: ghost mark with no block *)
  let p = proc ~body:(HL.GhostMark "gone") "p" in
  failed_with "DA009" { V.procs = [ p ]; preds = Smap.empty; invs = [] } p;
  (* DA012: State.create refuses an unstable predicate environment *)
  let shaky =
    {
      A.pname = "shaky";
      params = [ "p" ];
      body = A.Pure (T.eq (HT.deref (T.var "p")) (T.int 0));
    }
  in
  match St.create ~penv:(Smap.of_list [ ("shaky", shaky) ]) () with
  | _ -> Alcotest.fail "unstable penv must be refused"
  | exception Diag.Spec_error d ->
      Alcotest.(check string) "code" "DA012" d.Diag.code

(* ------------------------------------------------------------------ *)
(* Engine gating *)

let test_engine_gating () =
  let cfg =
    { E.default_config with E.options = { E.Options.default with lint = true } }
  in
  let bad = Suite.Ill_formed.unknown_pred in
  let bank = Suite.Programs.bank in
  let report =
    E.verify_programs ~config:cfg
      [
        (bad.Suite.Ill_formed.name, bad.Suite.Ill_formed.prog);
        (bank.Suite.Programs.name, bank.Suite.Programs.prog);
      ]
  in
  Alcotest.(check int) "two groups" 2 (List.length report.E.groups);
  let find g =
    List.find (fun (r : E.group_result) -> String.equal r.E.group g)
      report.E.groups
  in
  let g_bad = find bad.Suite.Ill_formed.name in
  List.iter
    (fun (p, o) ->
      match o with
      | V.Failed m when contains ~sub:"DA001" m -> ()
      | _ -> Alcotest.failf "gated proc %s must fail with DA001" p)
    g_bad.E.outcomes;
  Alcotest.(check bool) "bank still verifies" true
    (E.group_ok (find bank.Suite.Programs.name));
  match report.E.stats.E.analysis with
  | None -> Alcotest.fail "lint run must report analysis stats"
  | Some a ->
      Alcotest.(check int) "analyzed both" 2 a.E.a_programs;
      Alcotest.(check bool) "saw errors" true (a.E.a_errors > 0)

(* ------------------------------------------------------------------ *)
(* JSON renderer *)

let test_json () =
  Alcotest.(check string) "empty list" "[]" (Diag.list_to_json []);
  let d =
    Diag.error ~code:"DA011" ~hint:"wrap it"
      ~loc:(Diag.loc ~unit_name:"u" (Diag.Proc "f") Diag.Requires)
      "boom %d" 3
  in
  let js = Diag.to_json d in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (sub ^ " present") true (contains ~sub js))
    [
      {|"code": "DA011"|};
      {|"severity": "error"|};
      {|"message": "boom 3"|};
      {|"hint": "wrap it"|};
      {|"site": "requires"|};
    ]

let () =
  Alcotest.run "analysis"
    [
      ( "stability",
        [
          qcheck_agreement;
          qcheck_escapes_sound;
          qcheck_stabilize_root;
          Alcotest.test_case "explanations" `Quick test_explanations;
          Alcotest.test_case "da011-diag" `Quick test_da011_diag;
        ] );
      ("frame", [ Alcotest.test_case "frame-lint" `Quick test_frame ]);
      ("absint", [ qcheck_absint_sound; qcheck_discharge_sound ]);
      ( "programs",
        [
          Alcotest.test_case "suite-lints-clean" `Quick test_suite_clean;
          Alcotest.test_case "ill-formed-codes" `Quick test_ill_formed;
          Alcotest.test_case "clean-never-spec-fails" `Slow
            test_clean_never_spec_fails;
        ] );
      ( "routing",
        [
          Alcotest.test_case "spec-error-routing" `Quick
            test_spec_error_routing;
          Alcotest.test_case "engine-gating" `Quick test_engine_gating;
        ] );
      ("render", [ Alcotest.test_case "json" `Quick test_json ]);
    ]
