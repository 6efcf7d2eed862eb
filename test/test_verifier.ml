(** Verifier tests: the whole suite verifies, negative entries are
    rejected, the heap-dependence toggle behaves, mutations invalidate
    stale facts, and generated workloads verify at several sizes. *)

module A = Baselogic.Assertion
module GV = Baselogic.Ghost_val
module T = Smt.Term
module HL = Heaplang.Ast
module V = Verifier.Exec
module St = Verifier.State
open Stdx

let sym x = HL.Val (HL.Sym x)
let pt ?frac l v = A.points_to ?frac (T.var l) v

let all_verified prog =
  List.for_all (fun (_, o) -> o = V.Verified) (V.verify prog)

let suite_cases =
  List.map
    (fun (e : Suite.Programs.entry) ->
      Alcotest.test_case e.name `Quick (fun () ->
          let ok = all_verified e.prog in
          if e.expect_fail then
            Alcotest.(check bool) (e.name ^ " must fail") false ok
          else Alcotest.(check bool) (e.name ^ " verifies") true ok))
    Suite.Programs.all

let stable_variant_cases =
  List.filter_map
    (fun (e : Suite.Programs.entry) ->
      Option.map
        (fun sv ->
          Alcotest.test_case (e.name ^ "-stable") `Quick (fun () ->
              Alcotest.(check bool) "stable variant verifies" true
                (all_verified sv)))
        e.stable_variant)
    Suite.Programs.all

(* The example files: tests run in [_build/default/test], the dune
   deps put the sources next door in [../examples]. Every file that
   parses and elaborates, with its name. *)
let example_programs () =
  let rec find d fuel =
    let cand = Filename.concat d "examples" in
    if Sys.file_exists (Filename.concat cand "swap.hl") then cand
    else if fuel = 0 then Alcotest.fail "examples/ directory not found"
    else find (Filename.concat d Filename.parent_dir_name) (fuel - 1)
  in
  let dir = find (Sys.getcwd ()) 5 in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".hl")
  |> List.sort compare
  |> List.filter_map (fun f ->
         let src =
           In_channel.with_open_bin (Filename.concat dir f)
             In_channel.input_all
         in
         match Verifier.Elab.program_of_string ~file:f src with
         | prog, _ -> Some (f, prog)
         | exception
             ( Heaplang.Parser.Parse_error _ | Heaplang.Lexer.Lex_error _
             | Baselogic.Elab.Elab_error _ ) ->
             None)

(* Session vs one-shot: routing every obligation through the lemma-free
   one-shot pipeline (the pre-session verifier) must produce verdicts
   bit-identical to the incremental sessions, with their lemma stores,
   on positive and expect_fail entries alike — including the failure
   messages — over the suite and every example file. *)
let test_session_oneshot_identical () =
  let examples = example_programs () in
  Alcotest.(check bool) "examples found" true (List.length examples >= 10);
  List.iter
    (fun (name, prog) ->
      let incremental = V.verify prog in
      Smt.Session.oneshot := true;
      let oneshot =
        Fun.protect
          ~finally:(fun () -> Smt.Session.oneshot := false)
          (fun () -> V.verify prog)
      in
      Alcotest.(check bool)
        (name ^ ": session ≡ one-shot")
        true
        (incremental = oneshot))
    (List.map (fun (e : Suite.Programs.entry) -> (e.name, e.prog))
       Suite.Programs.all
    @ examples)

let test_heap_dep_toggle () =
  (* The hd spec must be rejected with heap_dep:false, and the stable
     variant must still pass. *)
  let e = Suite.Programs.count in
  let hd_off =
    List.for_all (fun (_, o) -> o = V.Verified)
      (V.verify ~heap_dep:false e.Suite.Programs.prog)
  in
  Alcotest.(check bool) "hd spec rejected with toggle off" false hd_off;
  match e.Suite.Programs.stable_variant with
  | Some sv ->
      let ok =
        List.for_all (fun (_, o) -> o = V.Verified) (V.verify ~heap_dep:false sv)
      in
      Alcotest.(check bool) "stable variant immune to toggle" true ok
  | None -> Alcotest.fail "count has a stable variant"

(* State-level unit tests *)

let test_inhale_consume () =
  let st = St.create () in
  let a = A.seps [ pt "l" (T.var "v"); A.Pure (T.le (T.int 0) (T.var "v")) ] in
  let st = St.inhale st a in
  Alcotest.(check int) "one chunk" 1 (List.length st.St.chunks);
  let st' = St.consume st (pt "l" (T.var "v")) in
  Alcotest.(check int) "chunk consumed" 0 (List.length st'.St.chunks);
  (match St.consume st' (pt "l" (T.var "v")) with
  | _ -> Alcotest.fail "double consume must fail"
  | exception St.Verification_error _ -> ());
  (* fraction splitting *)
  let st = St.inhale (St.create ()) (pt "l" (T.var "v")) in
  let st = St.consume st (pt ~frac:Q.half "l" (T.var "v")) in
  Alcotest.(check int) "half left" 1 (List.length st.St.chunks);
  ignore (St.consume st (pt ~frac:Q.half "l" (T.var "v")))

let test_resolution () =
  let st = St.create () in
  let st = St.inhale st (pt "l" (T.var "v")) in
  let phi = T.le (Baselogic.Hterm.deref (T.var "l")) (T.int 5) in
  let resolved = St.resolve st phi in
  Alcotest.(check bool) "read resolved" false
    (Baselogic.Hterm.heap_dependent resolved);
  (* read without permission *)
  let st0 = St.create () in
  match St.resolve st0 phi with
  | _ -> Alcotest.fail "must fail without permission"
  | exception St.Verification_error _ -> ()

let test_mutation_invalidates () =
  (* This is the destabilization property end-to-end: a spec carrying
     ⌜!l = v0⌝ past a store of a different value must fail, and the
     corrected spec must pass. *)
  let body = HL.Store (sym "l", HL.Val (HL.Int 9)) in
  let stale =
    {
      V.pname = "stale";
      params = [ "l"; "v0" ];
      requires =
        A.Sep (pt "l" (T.var "v0"),
               A.Pure (T.eq (Baselogic.Hterm.deref (T.var "l")) (T.var "v0")));
      ensures =
        A.Sep (A.Exists ("w", pt "l" (T.var "w")),
               A.Pure (T.eq (Baselogic.Hterm.deref (T.var "l")) (T.var "v0")));
      body;
      invariants = [];
      ghost = [];
    }
  in
  let fixed =
    {
      stale with
      V.pname = "fixed";
      ensures =
        A.Sep (A.Exists ("w", pt "l" (T.var "w")),
               A.Pure (T.eq (Baselogic.Hterm.deref (T.var "l")) (T.int 9)));
    }
  in
  let prog = { V.procs = [ stale; fixed ]; preds = Smap.empty; invs = [] } in
  (match V.verify_proc prog stale with
  | V.Failed _ -> ()
  | o -> Alcotest.failf "stale heap fact must not survive a store: %a" V.pp_outcome o);
  match V.verify_proc prog fixed with
  | V.Verified -> ()
  | o -> Alcotest.failf "fixed spec must verify: %a" V.pp_outcome o

let test_generated_sizes () =
  List.iter
    (fun n ->
      let p, _ = Suite.Generators.straightline n in
      match V.verify_proc { V.procs = [ p ]; preds = Smap.empty; invs = [] } p with
      | V.Verified -> ()
      | o -> Alcotest.failf "straightline %d: %a" n V.pp_outcome o)
    [ 1; 3; 7 ];
  List.iter
    (fun k ->
      let p = Suite.Generators.multicell k in
      match V.verify_proc { V.procs = [ p ]; preds = Smap.empty; invs = [] } p with
      | V.Verified -> ()
      | o -> Alcotest.failf "multicell %d: %a" k V.pp_outcome o)
    [ 1; 3; 5 ]

(* Mutated suite programs must fail: spec fuzzing. *)
let test_spec_mutations () =
  let faa_proc =
    Suite.Programs.main_proc
      (List.find
         (fun (e : Suite.Programs.entry) -> e.name = "faa_counter")
         Suite.Programs.all)
  in
  let weaken_requires (p : V.proc) = { p with V.requires = A.Emp } in
  List.iter
    (fun (name, proc, preds) ->
      let mutant = weaken_requires proc in
      let prog = { V.procs = [ mutant ]; preds; invs = [] } in
      match V.verify_proc prog mutant with
      | V.Failed _ -> ()
      | V.Verified ->
          (* Some programs survive (pure ones with Emp pre already);
             heap-manipulating ones must not. *)
          Alcotest.failf "%s verified without its precondition!" name
      | o -> Alcotest.failf "%s: unexpected outcome %a" name V.pp_outcome o)
    [
      ("swap", Suite.Programs.(main_proc swap), Smap.empty);
      ("length", Suite.Programs.length_proc, Suite.Programs.clist_preds);
      ("faa", faa_proc, Smap.empty);
    ]

(* Verify-then-run: a verified program runs without fault and its
   observable result matches the spec on concrete inputs. *)
let test_verify_then_run () =
  (* count with i=#0 initialized to 0 and n = 5 must return 5. *)
  let e =
    HL.Let ("i0", HL.Alloc (HL.Val (HL.Int 0)),
      Heaplang.Subst.close_expr [ ("n", HL.Int 5) ]
        (HL.Let ("tmp", HL.Val (HL.Sym "dummy"), HL.Val HL.Unit)))
  in
  ignore e;
  let body = Suite.Programs.(main_proc count).V.body in
  let closed = Heaplang.Subst.close_expr [ ("i", HL.Loc 0); ("n", HL.Int 5) ] body in
  let setup = HL.Seq (HL.Alloc (HL.Val (HL.Int 0)), closed) in
  match Heaplang.Step.run setup with
  | Heaplang.Step.Value (HL.Int 5, _) -> ()
  | r ->
      Alcotest.failf "count ran wrong: %s"
        (match r with
        | Heaplang.Step.Value (v, _) -> Fmt.str "%a" HL.pp_value v
        | Heaplang.Step.Error m -> m
        | Heaplang.Step.Timeout -> "timeout")

(* Ghost commands: unit tests. *)
let test_ghost_cmds () =
  let prog = { V.procs = []; preds = Suite.Programs.clist_preds; invs = [] } in
  let st = St.create ~penv:Suite.Programs.clist_preds () in
  (* fold nil: p = -1, n = 0 *)
  let st =
    St.add_pure (St.add_pure st (T.eq (T.var "p") (T.int (-1))))
      (T.eq (T.var "n") (T.int 0))
  in
  let sts = V.exec_ghost prog st (V.Fold ("clist", [ T.var "p"; T.var "n" ])) in
  (match sts with
  | [ st' ] ->
      Alcotest.(check int) "pred chunk" 1 (List.length st'.St.chunks)
  | _ -> Alcotest.fail "fold yields one state");
  (* ghost alloc + update on MaxNat *)
  let st = St.create () in
  let sts = V.exec_ghost prog st (V.GAlloc ("γ", GV.Max_nat (T.int 1))) in
  match sts with
  | [ st ] -> (
      let sts =
        V.exec_ghost prog st
          (V.Update ("γ", GV.Max_nat (T.int 1), GV.Max_nat (T.int 5)))
      in
      match sts with
      | [ st ] -> (
          (* downgrade must fail *)
          match
            V.exec_ghost prog st
              (V.Update ("γ", GV.Max_nat (T.int 5), GV.Max_nat (T.int 2)))
          with
          | _ -> Alcotest.fail "monotone downgrade must fail"
          | exception St.Verification_error _ -> ())
      | _ -> Alcotest.fail "update yields one state")
  | _ -> Alcotest.fail "alloc yields one state"

(* Regression: a predicate whose body is unstable at declaration must
   be rejected before any symbolic execution — [Assertion.stable]'s
   [Pred _ -> true] case is only sound because [State.create] enforces
   stability of every definition (DA012). *)
let test_unstable_pred_decl () =
  let shaky =
    {
      A.pname = "shaky";
      params = [ "p" ];
      body = A.Pure (T.eq (Baselogic.Hterm.deref (T.var "p")) (T.int 0));
    }
  in
  let preds = Smap.of_list [ ("shaky", shaky) ] in
  let user =
    {
      V.pname = "user";
      params = [ "p" ];
      requires = A.Pred ("shaky", [ T.var "p" ]);
      ensures = A.Emp;
      body = HL.Val HL.Unit;
      invariants = [];
      ghost = [];
    }
  in
  (match V.verify_proc { V.procs = [ user ]; preds; invs = [] } user with
  | V.Verified -> Alcotest.fail "unstable predicate body must be rejected"
  | (V.Timeout _ | V.Resource_out _ | V.Crashed _) as o ->
      Alcotest.failf "unstable predicate: unexpected outcome %a" V.pp_outcome o
  | V.Failed m ->
      let mentions_da012 =
        let n = String.length m in
        let rec go i = i + 5 <= n && (String.sub m i 5 = "DA012" || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "failure names DA012" true mentions_da012);
  (* the stable clist definitions still load fine *)
  ignore (St.create ~penv:Suite.Programs.clist_preds ())

(* Par mirroring: the symbolic executor verifies both branches of a
   par from the same entry state and neither sees the other's result,
   so swapping every par's branches ({!Suite.Programs.mirror_par})
   must leave every outcome equal — positives stay verified and
   negatives keep failing, message for message. The suite's pars are
   symmetric or verify on both sides, so a one-sided racy program is
   added: an executor that skipped a branch, or let one branch see the
   other, would fail it one way round and not the other. *)
let one_sided_source =
  {|invariant cell { exists v. x |-> v }
procedure one_sided(x) { par { x <- !x + 1 } { atomic { x <- !x + 1 } } }|}

let test_par_mirror () =
  let suite name =
    match
      List.find_opt
        (fun (e : Suite.Programs.entry) -> String.equal e.name name)
        Suite.Programs.all
    with
    | Some e -> (name, e.prog)
    | None -> Alcotest.failf "no suite entry %s" name
  in
  let one_sided =
    fst (Verifier.Elab.program_of_string ~file:"one_sided.hl" one_sided_source)
  in
  List.iter
    (fun (name, prog) ->
      Alcotest.(check bool)
        (name ^ ": mirrored outcomes = outcomes")
        true
        (V.verify (Suite.Programs.mirror_par prog) = V.verify prog))
    (("one_sided", one_sided)
    :: List.map suite
         [ "spinlock"; "ticket_lock"; "treiber"; "racy_incr"; "lock_noinv" ]);
  Alcotest.(check bool) "one_sided fails" true
    (List.exists (fun (_, o) -> o <> V.Verified) (V.verify one_sided))

(* The runtime side of DA026: a nested atomic section is rejected by
   the symbolic executor itself (mask discipline), not only by the
   static analyzer. *)
let test_nested_atomic_exec () =
  let c =
    match
      List.find_opt
        (fun (c : Suite.Ill_formed.case) ->
          String.equal c.Suite.Ill_formed.name "nested_atomic")
        Suite.Ill_formed.all
    with
    | Some c -> c
    | None -> Alcotest.fail "no ill-formed case nested_atomic"
  in
  match V.verify c.Suite.Ill_formed.prog with
  | [ (_, V.Failed m) ] ->
      let mentions_da026 =
        let n = String.length m in
        let rec go i = i + 5 <= n && (String.sub m i 5 = "DA026" || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "failure names DA026" true mentions_da026
  | os ->
      Alcotest.failf "nested atomic: expected one failure, got %a"
        Fmt.(list ~sep:sp (pair string V.pp_outcome))
        os

(* Integers never wrap: every procedure of {!Int_ref.out_of_range_source}
   is refused as out of range and counted, with the absint
   pre-discharge on and off. *)
let test_out_of_range () =
  let prog, _ =
    Verifier.Elab.program_of_string ~file:"out_of_range.hl"
      Int_ref.out_of_range_source
  in
  List.iter
    (fun absint ->
      let stats = Verifier.Vstats.create () in
      List.iter
        (fun (p : V.proc) ->
          match V.verify_proc ~absint ~stats prog p with
          | V.Resource_out "integer out of range" -> ()
          | o ->
              Alcotest.failf "%s (absint %b): %a" p.V.pname absint
                V.pp_outcome o)
        prog.V.procs;
      Alcotest.(check int)
        (Printf.sprintf "counted (absint %b)" absint)
        5 stats.Verifier.Vstats.int_out_of_range)
    [ true; false ]

(* Chunk lookup under aliasing: every location below is a distinct
   term equal to another one only through the path condition, so each
   lookup must ask the context rather than skip the candidate. *)
let aliasing_source =
  {|procedure halves(l, m, a, b) requires l |->{1/2} a * m |->{1/2} b * [l == m] ensures l |-> a * [result == b] { !m }
procedure alias_load(l, m, a) requires l |-> a * [m == l] ensures l |-> a * [result == a] { !m }
procedure alias_store(l, m, a) requires l |-> a * [m == l] ensures l |-> 5 { m <- 5 }
procedure two_full(l, m, a, b) requires l |-> a * m |-> b * [l == m] ensures l |-> a * m |-> b * [a == b] { 0 }
procedure two_full_swap(l, m, a, b) requires l |-> a * m |-> b * [l == m] ensures m |-> a * l |-> b { 0 }
procedure half_then_full(l, m, a) requires m |->{1/2} a * l |->{1/2} a * [l == m] ensures l |-> a { 0 }
|}

let test_aliasing () =
  let prog, _ =
    Verifier.Elab.program_of_string ~file:"aliasing.hl" aliasing_source
  in
  Alcotest.(check int) "six procedures" 6 (List.length prog.V.procs);
  List.iter
    (fun (name, o) ->
      if o <> V.Verified then Alcotest.failf "%s: %a" name V.pp_outcome o)
    (V.verify prog)

(* Chunk lookup is linear: a [k]-cell procedure spends no obligation on
   the candidate chunks the context model separates from the sought
   location, so only the [k] value checks of the postcondition remain
   (asking every candidate costs 3k²−2k). *)
let test_linear_lookup () =
  for k = 2 to 8 do
    let proc =
      Suite.Corpus.cells ~name:"cells" ~k ~step:3 ~salt:k ~wrong_cell:(-1)
    in
    let prog = { V.procs = [ proc ]; preds = Smap.empty; invs = [] } in
    let stats = Verifier.Vstats.create () in
    (match V.verify_proc ~stats prog proc with
    | V.Verified -> ()
    | o -> Alcotest.failf "cells k=%d: %a" k V.pp_outcome o);
    let n = stats.Verifier.Vstats.obligations in
    if n > 2 * k then
      Alcotest.failf "cells k=%d: %d obligations, more than 2k" k n
  done

let () =
  Alcotest.run "verifier"
    [
      ("suite", suite_cases);
      ("stable-variants", stable_variant_cases);
      ( "sessions",
        [
          Alcotest.test_case "session-oneshot-identical" `Quick
            test_session_oneshot_identical;
        ] );
      ( "destabilization",
        [
          Alcotest.test_case "heap-dep-toggle" `Quick test_heap_dep_toggle;
          Alcotest.test_case "mutation-invalidates" `Quick
            test_mutation_invalidates;
          Alcotest.test_case "resolution" `Quick test_resolution;
        ] );
      ( "state",
        [
          Alcotest.test_case "inhale-consume" `Quick test_inhale_consume;
          Alcotest.test_case "ghost-cmds" `Quick test_ghost_cmds;
          Alcotest.test_case "unstable-pred-decl" `Quick
            test_unstable_pred_decl;
        ] );
      ( "integration",
        [
          Alcotest.test_case "generated-sizes" `Quick test_generated_sizes;
          Alcotest.test_case "spec-mutations" `Quick test_spec_mutations;
          Alcotest.test_case "verify-then-run" `Quick test_verify_then_run;
          Alcotest.test_case "par-mirror" `Quick test_par_mirror;
          Alcotest.test_case "nested-atomic-exec" `Quick
            test_nested_atomic_exec;
          Alcotest.test_case "out-of-range" `Quick test_out_of_range;
          Alcotest.test_case "aliasing" `Quick test_aliasing;
          Alcotest.test_case "linear-lookup" `Quick test_linear_lookup;
        ] );
    ]
