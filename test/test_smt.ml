(** Solver tests: unit cases for each component, end-to-end
    sat/unsat cases, and a differential property test — random small
    formulas decided both by the solver and by brute-force enumeration
    over a small domain. *)

open Smt
open Term

let check_result name expected asserts () =
  let r = Solver.check_sat asserts in
  let s =
    match r with
    | Solver.Sat _ -> "sat"
    | Solver.Unsat -> "unsat"
    | Solver.Unknown -> "unknown"
    | Solver.Resource_out _ -> "resource-out"
  in
  Alcotest.(check string) name expected s

let x = var "x"
let y = var "y"
let z = var "z"

let solver_units =
  [
    ("trivial-true", "sat", [ tru ]);
    ("contradiction", "unsat", [ eq x (int 1); eq x (int 2) ]);
    ("lt-antisym", "unsat", [ lt x y; lt y x ]);
    ("le-chain", "unsat", [ le x y; le y z; gt x z ]);
    ("lin-system", "sat", [ eq (add x y) (int 3); eq (sub x y) (int 1) ]);
    ("parity", "unsat", [ eq (mul (int 2) x) (int 3) ]);
    ("congruence", "unsat", [ neq (app "f" [ x ]) (app "f" [ y ]); eq x y ]);
    ( "cong-via-lia",
      "unsat",
      [ neq (app "f" [ x ]) (app "f" [ y ]); le x y; le y x ] );
    ("f-distinct", "sat", [ neq (app "f" [ x ]) (app "f" [ y ]) ]);
    ( "pigeonhole-2",
      "unsat",
      Suite.Generators.pigeonhole 2 );
    ( "distinct-3-in-2",
      "unsat",
      [
        neq x y; neq y z; neq x z;
        le (int 1) x; le x (int 2);
        le (int 1) y; le y (int 2);
        le (int 1) z; le z (int 2);
      ] );
    ("ite-int", "unsat", [ eq (ite (lt x y) (int 1) (int 2)) (int 1); ge x y ]);
    ("strict-int-gap", "unsat", [ lt x y; gt (add x (int 1)) y ]);
    ( "cong-through-arith",
      "unsat",
      [ eq x y; neq (app "f" [ add x (int 1) ]) (app "f" [ add y (int 1) ]) ] );
    ("bool-var", "sat", [ or_ [ bvar "p"; bvar "q" ]; not_ (bvar "p") ]);
    ( "iff",
      "unsat",
      [ iff (bvar "p") (bvar "q"); bvar "p"; not_ (bvar "q") ] );
    ("uf-pred", "unsat", [ pred "P" [ x ]; not_ (pred "P" [ y ]); eq x y ]);
    ( "nonlinear-abstraction",
      "unsat",
      [ neq (mul x y) (mul x y) ] );
    (* Branch-and-bound over unbounded integers: each of these used to
       run out of simplex fuel down an infinite chain of relaxations. *)
    ("bb-gcd", "unsat", [ eq (add z z) (add (add y y) (int 1)) ]);
    ( "bb-least-id",
      "sat",
      [ le (int 2) (app "f" [ x ]); lt (app "f" [ int 2 ]) (add x x);
        neq (app "f" [ int 3 ]) (add y x) ] );
    ( "bb-toward-zero",
      "sat",
      [ or_ [ not_ (lt (app "f" [ z ]) (app "f" [ int 2 ]));
              lt (add (int (-2)) z) (app "f" [ x ]); lt (add z (int (-2))) z ];
        lt (add (int (-2)) z) (app "f" [ x ]);
        neq (add x z) (add y y) ] );
    ( "bb-no-integer-between",
      "sat",
      [ eq (add z z) (app "f" [ x ]); eq (int 4) (add (int 2) x);
        or_ [ eq (add z z) (app "f" [ x ]); neq (int (-3)) (app "f" [ x ]) ];
        lt (app "f" [ int (-3) ]) (int (-2));
        lt (add z y) (app "f" [ int (-1) ]); neq y (app "f" [ int 0 ]) ] );
  ]
  |> List.map (fun (n, e, a) -> Alcotest.test_case n `Quick (check_result n e a))

(* Model soundness: on Sat, the returned model satisfies the formula. *)
let test_model_soundness () =
  let asserts =
    [ eq (add x y) (int 7); lt x y; ge x (int 0); neq x (int 1) ]
  in
  match Solver.check_sat asserts with
  | Solver.Sat m ->
      let env = m.Solver.ints in
      List.iter
        (fun t ->
          match Term.eval_bool ~env t with
          | Some b -> Alcotest.(check bool) (Term.to_string t) true b
          | None -> Alcotest.fail "model incomplete")
        asserts
  | _ -> Alcotest.fail "expected sat"

(* Simplex unit tests *)

let test_simplex () =
  let open Stdx in
  let s = Simplex.create () in
  let le_ l = Simplex.Linexp.of_list l in
  Simplex.assert_atom s (le_ [ ("a", Q.one); ("b", Q.one) ]) Simplex.Le (Q.of_int 5);
  Simplex.assert_atom s (le_ [ ("a", Q.one) ]) Simplex.Ge (Q.of_int 3);
  Simplex.assert_atom s (le_ [ ("b", Q.one) ]) Simplex.Ge (Q.of_int 3);
  (match Simplex.check_rational s with
  | Simplex.Unsat -> ()
  | Simplex.Sat -> Alcotest.fail "3+3 > 5 should be unsat");
  let s2 = Simplex.create () in
  Simplex.assert_atom s2 (le_ [ ("a", Q.of_int 2); ("b", Q.of_int 3) ]) Simplex.Eq (Q.of_int 12);
  Simplex.assert_atom s2 (le_ [ ("a", Q.one) ]) Simplex.Ge Q.zero;
  Simplex.assert_atom s2 (le_ [ ("b", Q.one) ]) Simplex.Ge Q.zero;
  match Simplex.check_int s2 with
  | Simplex.IModel m ->
      let a = Stdx.Smap.find "a" m and b = Stdx.Smap.find "b" m in
      Alcotest.(check int) "2a+3b=12" 12 ((2 * a) + (3 * b))
  | _ -> Alcotest.fail "2a+3b=12 has integer solutions"

(* Congruence closure unit tests *)

let test_cc () =
  let cc = Cc.create () in
  let nx = Cc.node_of_term cc (var "x") in
  let ny = Cc.node_of_term cc (var "y") in
  let fx = Cc.alloc cc (Cc.Fapp ("f", [ nx ])) in
  let fy = Cc.alloc cc (Cc.Fapp ("f", [ ny ])) in
  let ffx = Cc.alloc cc (Cc.Fapp ("f", [ fx ])) in
  let ffy = Cc.alloc cc (Cc.Fapp ("f", [ fy ])) in
  Alcotest.(check bool) "apart" false (Cc.are_equal cc fx fy);
  Cc.assert_eq cc nx ny;
  Alcotest.(check bool) "congruent" true (Cc.are_equal cc fx fy);
  Alcotest.(check bool) "nested congruent" true (Cc.are_equal cc ffx ffy);
  Cc.assert_neq cc ffx ffy;
  Alcotest.(check bool) "inconsistent" false (Cc.consistent cc)

let test_cc_numbers () =
  let cc = Cc.create () in
  let n1 = Cc.node_of_term cc (Term.int 1) in
  let n2 = Cc.node_of_term cc (Term.int 2) in
  Cc.assert_eq cc n1 n2;
  Alcotest.(check bool) "1 ≠ 2" false (Cc.consistent cc)

(* SAT solver unit tests *)

let test_sat () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  let pos v = Sat.lit_of_var v and neg v = Sat.lit_of_var ~neg:true v in
  ignore (Sat.add_clause s [ pos a; pos b ]);
  ignore (Sat.add_clause s [ neg a; pos b ]);
  ignore (Sat.add_clause s [ pos a; neg b ]);
  (match Sat.solve s with
  | Sat.Sat ->
      Alcotest.(check bool) "a and b" true (Sat.model_value s a && Sat.model_value s b)
  | _ -> Alcotest.fail "sat expected");
  ignore (Sat.add_clause s [ neg a; neg b ]);
  match Sat.solve s with
  | Sat.Unsat -> ()
  | _ -> Alcotest.fail "unsat expected"

(* Differential testing: random formulas vs brute-force enumeration. *)

let gen_term : Term.t QCheck.Gen.t =
  let open QCheck.Gen in
  let vars = [ "x"; "y"; "z" ] in
  let rec atom n =
    let base =
      oneof
        [
          map Term.int (int_range (-3) 3);
          map Term.var (oneofl vars);
        ]
    in
    if n <= 0 then base
    else
      frequency
        [
          (3, base);
          ( 2,
            map2 Term.add (atom (n - 1)) (atom (n - 1)) );
          (1, map2 Term.sub (atom (n - 1)) (atom (n - 1)));
        ]
  in
  let rec form n =
    let cmp =
      oneof
        [
          map2 Term.eq (atom 1) (atom 1);
          map2 Term.le (atom 1) (atom 1);
          map2 Term.lt (atom 1) (atom 1);
        ]
    in
    if n <= 0 then cmp
    else
      frequency
        [
          (3, cmp);
          (2, map Term.not_ (form (n - 1)));
          (2, map2 (fun a b -> Term.and_ [ a; b ]) (form (n - 1)) (form (n - 1)));
          (2, map2 (fun a b -> Term.or_ [ a; b ]) (form (n - 1)) (form (n - 1)));
          (1, map2 Term.implies (form (n - 1)) (form (n - 1)));
        ]
  in
  form 3

let brute_force_sat (t : Term.t) : bool =
  let dom = [ -3; -2; -1; 0; 1; 2; 3; 4; 5 ] in
  List.exists
    (fun vx ->
      List.exists
        (fun vy ->
          List.exists
            (fun vz ->
              let env =
                Stdx.Smap.of_list [ ("x", vx); ("y", vy); ("z", vz) ]
              in
              Term.eval_bool ~env t = Some true)
            dom)
        dom)
    dom

let differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"solver-vs-brute-force" ~count:300
       (QCheck.make ~print:Term.to_string gen_term)
       (fun t ->
         match Solver.check_sat [ t ] with
         | Solver.Sat m ->
             (* The model must actually satisfy the formula. *)
             let env = m.Solver.ints in
             let env =
               List.fold_left
                 (fun env v ->
                   if Stdx.Smap.mem v env then env else Stdx.Smap.add v 0 env)
                 env [ "x"; "y"; "z" ]
             in
             Term.eval_bool ~env t = Some true
         | Solver.Unsat ->
             (* Brute force over a domain wide enough for ±3 literals
                and depth-1 arithmetic: if the solver says unsat, the
                domain search must find nothing. *)
             not (brute_force_sat t)
         | Solver.Unknown | Solver.Resource_out _ -> true))

let entails_cases =
  [
    Alcotest.test_case "entails-valid" `Quick (fun () ->
        Alcotest.(check bool) "x+1>x" true
          (Solver.entails_bool (gt (add x (int 1)) x)));
    Alcotest.test_case "entails-hyps" `Quick (fun () ->
        Alcotest.(check bool) "x=1 ⊨ x>0" true
          (Solver.entails_bool ~hyps:[ eq x (int 1) ] (gt x (int 0))));
    Alcotest.test_case "entails-invalid" `Quick (fun () ->
        Alcotest.(check bool) "x>0 invalid" false
          (Solver.entails_bool (gt x (int 0))));
  ]


(* Differential simplex test: random integer constraint systems over a
   small box, solver verdict vs exhaustive search. *)

let gen_lia_system :
    ((int * int * int) * Simplex.op * int) list QCheck.Gen.t =
  let open QCheck.Gen in
  let atom =
    map2
      (fun (a, b, c) (op, k) -> ((a, b, c), op, k))
      (triple (int_range (-3) 3) (int_range (-3) 3) (int_range (-3) 3))
      (pair
         (oneofl [ Simplex.Le; Simplex.Lt; Simplex.Ge; Simplex.Gt; Simplex.Eq ])
         (int_range (-6) 6))
  in
  list_size (int_range 1 6) atom

let lia_holds (x, y, z) ((a, b, c), op, k) =
  let v = (a * x) + (b * y) + (c * z) in
  match op with
  | Simplex.Le -> v <= k
  | Simplex.Lt -> v < k
  | Simplex.Ge -> v >= k
  | Simplex.Gt -> v > k
  | Simplex.Eq -> v = k

let lia_brute_sat (atoms : ((int * int * int) * Simplex.op * int) list) =
  let dom = Stdx.Listx.range (-7) 8 in
  List.exists
    (fun x ->
      List.exists
        (fun y ->
          List.exists (fun z -> List.for_all (lia_holds (x, y, z)) atoms) dom)
        dom)
    dom

let lia_assert s ((a, b, c), op, k) =
  let open Stdx in
  Simplex.assert_atom s
    (Simplex.Linexp.of_list
       [ ("x", Q.of_int a); ("y", Q.of_int b); ("z", Q.of_int c) ])
    op (Q.of_int k)

(* Whether an integer model of [x], [y], [z] satisfies every atom. *)
let lia_model_holds m atoms =
  let get v = Option.value ~default:0 (Stdx.Smap.find_opt v m) in
  List.for_all (lia_holds (get "x", get "y", get "z")) atoms

let simplex_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"simplex-vs-brute-force" ~count:300
       (QCheck.make gen_lia_system)
       (fun atoms ->
         let s = Simplex.create () in
         List.iter (lia_assert s) atoms;
         match Simplex.check_int s with
         | Simplex.IModel m -> lia_model_holds m atoms
         | Simplex.IUnsat ->
             (* brute force over the box must find nothing (the box is
                wide enough for coefficients/constants of this size to
                have a solution inside if one exists at all — checked
                empirically; a false negative here would fail) *)
             not (lia_brute_sat atoms)
         | Simplex.IResource_out -> true))

(* The simplex keeps its assignment across checks (warm start). One
   long-lived state runs a random sequence of scopes, asserts, checks
   and equality probes; every check must agree with a fresh state
   holding the same constraints and with brute force, every equality
   probe the live assignment refutes must really be refuted, and the
   kernel invariant must hold after every operation. *)
type sx_op =
  | XPush
  | XCheckpoint
  | XClose  (** close the innermost frame with the matching pop/restore *)
  | XAssert of ((int * int * int) * Simplex.op * int)
  | XCheck
  | XProbe of string * string

let pp_sx_op = function
  | XPush -> "push"
  | XCheckpoint -> "checkpoint"
  | XClose -> "close"
  | XAssert ((a, b, c), op, k) ->
      Printf.sprintf "assert %dx%+dy%+dz %s %d" a b c
        (match op with
        | Simplex.Le -> "<="
        | Lt -> "<"
        | Ge -> ">="
        | Gt -> ">"
        | Eq -> "=")
        k
  | XCheck -> "check"
  | XProbe (a, b) -> Printf.sprintf "probe %s=%s" a b

let gen_sx_ops : sx_op list QCheck.Gen.t =
  let open QCheck.Gen in
  let atom =
    map2
      (fun (a, b, c) (op, k) -> XAssert ((a, b, c), op, k))
      (triple (int_range (-3) 3) (int_range (-3) 3) (int_range (-3) 3))
      (pair
         (oneofl [ Simplex.Le; Simplex.Lt; Simplex.Ge; Simplex.Gt; Simplex.Eq ])
         (int_range (-6) 6))
  in
  let probe =
    oneofl [ XProbe ("x", "y"); XProbe ("x", "z"); XProbe ("y", "z") ]
  in
  list_size (int_range 5 30)
    (frequency
       [
         (2, return XPush);
         (2, return XCheckpoint);
         (3, return XClose);
         (5, atom);
         (3, return XCheck);
         (2, probe);
       ])

let sx_kind = function
  | Simplex.IModel _ -> "sat"
  | Simplex.IUnsat -> "unsat"
  | Simplex.IResource_out -> "resource-out"

(* The two probes of [Theory.lia_entails_eq], run on [s] itself. *)
let sx_entails_eq s a b =
  let open Stdx in
  let test op =
    Simplex.push s;
    Simplex.assert_atom s
      (Simplex.Linexp.of_list [ (a, Q.one); (b, Q.minus_one) ])
      op Q.zero;
    let r = Simplex.check_rational s in
    Simplex.pop s;
    r = Simplex.Unsat
  in
  test Simplex.Lt && test Simplex.Gt

let simplex_incremental =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"simplex-incremental-vs-fresh" ~count:300
       (QCheck.make
          ~print:(fun ops -> String.concat "; " (List.map pp_sx_op ops))
          gen_sx_ops)
       (fun ops ->
         let s = Simplex.create () in
         (* mirror: innermost frame first, each with its atoms newest
            first and how it was opened *)
         let frames = ref [ (`Base, []) ] in
         let atoms () = List.rev (List.concat_map snd !frames) in
         let fail fmt = QCheck.Test.fail_reportf fmt in
         List.iter
           (fun op ->
             (match op with
             | XPush ->
                 Simplex.push s;
                 frames := (`Trail, []) :: !frames
             | XCheckpoint ->
                 frames := (`Snap (Simplex.checkpoint s), []) :: !frames
             | XClose -> (
                 match !frames with
                 | (`Trail, _) :: rest ->
                     Simplex.pop s;
                     frames := rest
                 | (`Snap snap, _) :: rest ->
                     Simplex.restore s snap;
                     frames := rest
                 | _ -> ())
             | XAssert a -> (
                 lia_assert s a;
                 match !frames with
                 | (kind, f) :: rest -> frames := (kind, a :: f) :: rest
                 | [] -> assert false)
             | XCheck -> (
                 let atoms = atoms () in
                 let fresh = Simplex.create () in
                 List.iter (lia_assert fresh) atoms;
                 let r = Simplex.check_int s
                 and expect = Simplex.check_int fresh in
                 (* Branch-and-bound over unbounded integers may run out
                    of fuel on either side, as cold starts could: only
                    two decided answers must agree. *)
                 if r <> Simplex.IResource_out
                    && expect <> Simplex.IResource_out
                    && sx_kind r <> sx_kind expect
                 then fail "warm %s, fresh %s" (sx_kind r) (sx_kind expect);
                 match r with
                 | Simplex.IModel m ->
                     if not (lia_model_holds m atoms) then
                       fail "model violates an atom"
                 | Simplex.IUnsat ->
                     if lia_brute_sat atoms then fail "unsat, brute force sat"
                 | Simplex.IResource_out -> ())
             | XProbe (a, b) ->
                 let apart = Simplex.apart s a b in
                 if apart && sx_entails_eq s a b then
                   fail "%s=%s is entailed, but the live assignment \
                         refuted it" a b);
             if not (Simplex.invariant_ok s) then
               fail "invariant broken after %s" (pp_sx_op op))
           ops;
         true))

(* An integer comparison over [x], [y], [z], small literals, [f] and
   [+]: EUF and LIA sharing variables. *)
let gen_int_cmp : Term.t QCheck.Gen.t =
  let open QCheck.Gen in
  let base =
    oneof
      [
        map Term.int (int_range (-3) 3);
        map Term.var (oneofl [ "x"; "y"; "z" ]);
      ]
  in
  let atom =
    oneof [ base; map (fun t -> Term.app "f" [ t ]) base; map2 Term.add base base ]
  in
  oneof [ map2 Term.eq atom atom; map2 Term.le atom atom; map2 Term.lt atom atom ]

let gen_theory_lits : Theory.atom list QCheck.Gen.t =
  let open QCheck.Gen in
  (* The smart constructors fold comparisons of literals to constants,
     which are not theory atoms. *)
  let is_atom t =
    match Term.view t with Term.Eq _ | Term.Le _ | Term.Lt _ -> true | _ -> false
  in
  list_size (int_range 1 6)
    (map2 (fun term pos -> { Theory.term; pos }) gen_int_cmp bool)
  |> map (List.filter (fun a -> is_atom a.Theory.term))

let theory_kind = function
  | Theory.Sat _ -> "sat"
  | Theory.Unsat -> "unsat"
  | Theory.Resource_out _ -> "resource-out"

let pp_lits lits =
  String.concat ", "
    (List.map
       (fun { Theory.term; pos } ->
         (if pos then "" else "¬") ^ Term.to_string term)
       lits)

(* A theory state that has already answered unrelated scoped checks
   must give the same verdict as a fresh state: the warm simplex
   assignment (and whatever else survives a scope) may speed a check
   up, never change its answer. *)
let theory_warm_vs_fresh =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"theory-warm-vs-fresh" ~count:300
       (QCheck.make
          ~print:(fun (warmups, lits) ->
            String.concat " | "
              (List.map
                 (fun (scoped, l) ->
                   (if scoped then "scoped " else "") ^ pp_lits l)
                 warmups
              @ [ pp_lits lits ]))
          QCheck.Gen.(
            pair
              (list_size (int_range 1 4) (pair bool gen_theory_lits))
              gen_theory_lits))
       (fun (warmups, lits) ->
         let check_in st ~scoped lits =
           if scoped then begin
             Theory.push_scoped st;
             List.iter (Theory.assert_literal st) lits;
             let r = Theory.check st in
             Theory.pop_scoped st;
             r
           end
           else begin
             Theory.push st;
             List.iter (Theory.assert_literal st) lits;
             let r = Theory.check_scoped st in
             Theory.pop st;
             r
           end
         in
         let st = Theory.create () in
         List.iter
           (fun (scoped, l) -> ignore (check_in st ~scoped l))
           warmups;
         let warm = check_in st ~scoped:true lits
         and fresh = check_in (Theory.create ()) ~scoped:true lits in
         theory_kind warm = theory_kind fresh))

(* Random congruence-closure instances vs a naive fixpoint oracle. *)
let cc_random =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"cc-vs-union-fixpoint" ~count:200
       QCheck.(
         make
           Gen.(
             list_size (int_range 1 10)
               (pair (int_bound 4) (int_bound 4))))
       (fun eqs ->
         (* terms: x0..x4 and f(x0)..f(x4); assert equalities between
            the base variables, check congruence of the f-images. *)
         let cc = Cc.create () in
         let xs = Array.init 5 (fun i -> Cc.node_of_term cc (var (Printf.sprintf "x%d" i))) in
         let fs = Array.map (fun n -> Cc.alloc cc (Cc.Fapp ("f", [ n ]))) xs in
         List.iter (fun (i, j) -> Cc.assert_eq cc xs.(i) xs.(j)) eqs;
         (* oracle: union-find on indices *)
         let uf = Stdx.Union_find.create () in
         for _ = 0 to 4 do ignore (Stdx.Union_find.make uf) done;
         List.iter (fun (i, j) -> ignore (Stdx.Union_find.union uf i j)) eqs;
         List.for_all
           (fun (i, j) ->
             Stdx.Union_find.equiv uf i j
             = Cc.are_equal cc fs.(i) fs.(j))
           (List.concat_map
              (fun i -> List.map (fun j -> (i, j)) [ 0; 1; 2; 3; 4 ])
              [ 0; 1; 2; 3; 4 ])))

(* ------------------------------------------------------------------ *)
(* Incremental sessions *)

let verdict_kind = function
  | Solver.Valid -> "valid"
  | Solver.Invalid _ -> "invalid"
  | Solver.Undecided -> "undecided"
  | Solver.Gave_up _ -> "gave-up"

(* Counter regressions: the representative-bucketed combination keeps
   the euf-chain near-linear; pin the Stats counters so a quadratic
   regression shows up as a count, not as a slow test. *)
let test_euf_chain_counts () =
  Stats.reset ();
  (match Solver.check_sat (Suite.Generators.euf_chain 24) with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "euf-chain must be unsat");
  let s = Stats.snapshot () in
  Alcotest.(check int) "one query" 1 s.Stats.queries;
  Alcotest.(check int) "no combination timeouts" 0 s.Stats.combination_timeouts;
  (* Theory checks include the core-minimization deletion probes, which
     are linear in the chain length (one pass of drops plus retries); a
     quadratic combination would push this into the hundreds. *)
  Alcotest.(check bool)
    (Printf.sprintf "theory checks linear (got %d)" s.Stats.theory_checks)
    true
    (s.Stats.theory_checks <= 4 * 24);
  (* Equality propagation must stay linear in the chain length {e per
     check}: the anchor-chain scheme propagates at most one equality
     per class member, where the old all-pairs scan produced ~k²/2. *)
  Alcotest.(check bool)
    (Printf.sprintf "eq propagations linear per check (got %d over %d checks)"
       s.Stats.eq_propagations s.Stats.theory_checks)
    true
    (s.Stats.eq_propagations <= s.Stats.theory_checks * 24)

let test_pigeonhole_counts () =
  Stats.reset ();
  (match Solver.check_sat (Suite.Generators.pigeonhole 4) with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "pigeonhole must be unsat");
  let s = Stats.snapshot () in
  Alcotest.(check int) "one query" 1 s.Stats.queries;
  (* Purely propositional: the theory solver never sees a full model
     (conflicts are found at the SAT level), and the conflict count is
     what makes PHP(4) hard. *)
  Alcotest.(check int) "no theory checks" 0 s.Stats.theory_checks;
  Alcotest.(check bool) "sat conflicts happened" true (s.Stats.sat_conflicts > 0)

let test_session_euf_chain () =
  Stats.reset ();
  let s = Session.create () in
  let xi i = var (Printf.sprintf "x%d" i) in
  List.iter
    (fun i ->
      Session.push s;
      Session.assert_hyp s (eq (xi i) (xi (i + 1))))
    (List.init 24 Fun.id);
  let goal = eq (app "f" [ xi 0 ]) (app "f" [ xi 24 ]) in
  (match Session.check_goal s goal with
  | Solver.Valid -> ()
  | v -> Alcotest.failf "chain goal should be valid, got %s" (verdict_kind v));
  let st = Stats.snapshot () in
  Alcotest.(check int) "one session check" 1 st.Stats.session_checks;
  Alcotest.(check int) "no fallbacks" 0 st.Stats.session_fallbacks;
  Alcotest.(check int) "no one-shot queries" 0 st.Stats.queries;
  (* One check establishes the context model (cached thereafter); the
     negated goal is a disequality between applications, so the session
     probes its two strict branches — three theory checks total,
     however long the chain. *)
  Alcotest.(check int) "three theory checks" 3 st.Stats.theory_checks

(* Pop-then-reassert: retracting a frame must actually retract its
   facts, and re-asserting the same formula afterwards must reuse the
   solver state correctly (slack memo, purification). *)
let test_session_pop_reassert () =
  let s = Session.create () in
  let goal = gt (add x y) (int 1) in
  let hyp = eq (add x y) (int 2) in
  Alcotest.(check string) "unconstrained" "invalid"
    (verdict_kind (Session.check_goal s goal));
  Session.push s;
  Session.assert_hyp s hyp;
  Alcotest.(check string) "constrained" "valid"
    (verdict_kind (Session.check_goal s goal));
  Session.pop s;
  Alcotest.(check string) "retracted" "invalid"
    (verdict_kind (Session.check_goal s goal));
  Session.push s;
  Session.assert_hyp s hyp;
  Alcotest.(check string) "re-asserted" "valid"
    (verdict_kind (Session.check_goal s goal));
  Session.pop s

(* Regression: a product whose true value leaves the native int range
   must never be folded back into it. With x defined as 2^32, x*x is
   2^64, which wraps to 0 in a native int; a normal form that kept the
   wrapped value once reported the goal x*x = 0 as Valid. The theory
   computes exactly ({!Stdx.Checked}) and must refuse to conclude
   Valid. *)
let test_session_poly_no_wrap () =
  let s = Session.create () in
  Session.push s;
  Session.assert_hyp s (eq x (int (1 lsl 32)));
  (match Session.check_goal s (eq (mul x x) (int 0)) with
  | Solver.Valid -> Alcotest.fail "wrapped product accepted as Valid"
  | _ -> ());
  Session.pop s

(* Linear identities through defining equalities, the goals symbolic
   execution generates in bulk: a chain x1 = x0 + c1, ..., xn = x(n-1)
   + cn, some steps written through a product with a literal
   (k*x - (k-1)*x + c), entails xn = x0 + sum c and refutes every
   off-by-k variant with a model of the chain. The session decides
   both by theory probes alone: no fallback, no fuel exhausted. *)
let session_linear_chains =
  let gen =
    let open QCheck.Gen in
    let step = pair (int_range (-50) 50) (oneofl [ 1; 2; 3; 4 ]) in
    triple (list_size (int_range 1 8) step)
      (oneof [ int_range (-5) (-1); int_range 1 5 ])
      bool
  in
  let print (steps, off, _) =
    Printf.sprintf "steps [%s], off %d"
      (String.concat "; "
         (List.map (fun (c, k) -> Printf.sprintf "%d*%d" c k) steps))
      off
  in
  let xi i = var (Printf.sprintf "x%d" i) in
  let fuel_zero (d : Stats.t) =
    List.for_all
      (fun (name, v) ->
        (not (String.starts_with ~prefix:"fuel_" name)) || v = `Int 0)
      (Stdx.Counters.to_list Stats.fields d)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"session-linear-chains" ~count:300
       (QCheck.make ~print gen) (fun (steps, off, valid_first) ->
         let hyps =
           List.mapi
             (fun i (c, k) ->
               let prev = xi i in
               let rhs =
                 if k = 1 then add prev (int c)
                 else
                   sub (mul (int k) prev)
                     (sub (mul (int (k - 1)) prev) (int c))
               in
               eq (xi (i + 1)) rhs)
             steps
         in
         let n = List.length steps in
         let sum = List.fold_left (fun acc (c, _) -> acc + c) 0 steps in
         let goal d = eq (xi n) (add (xi 0) (int (sum + d))) in
         let s = Session.create () in
         List.iter
           (fun h ->
             Session.push s;
             Session.assert_hyp s h)
           hyps;
         let before = Stats.snapshot () in
         let check_valid () =
           match Session.check_goal s (goal 0) with
           | Solver.Valid -> true
           | v -> QCheck.Test.fail_reportf "identity: %s" (verdict_kind v)
         in
         let check_invalid () =
           match Session.check_goal s (goal off) with
           | Solver.Invalid { Solver.ints; _ } ->
               let env =
                 List.fold_left
                   (fun env i ->
                     if Stdx.Smap.mem (Printf.sprintf "x%d" i) env then env
                     else Stdx.Smap.add (Printf.sprintf "x%d" i) 0 env)
                   ints (List.init (n + 1) Fun.id)
               in
               let holds t = Term.eval_bool ~env t = Some true in
               List.for_all holds hyps
               || QCheck.Test.fail_report "model violates the chain"
           | v -> QCheck.Test.fail_reportf "off by %d: %s" off (verdict_kind v)
         in
         let ok =
           if valid_first then
             let v = check_valid () in
             check_invalid () && v
           else
             let i = check_invalid () in
             check_valid () && i
         in
         let d = Stats.diff (Stats.snapshot ()) before in
         ok
         && (d.Stats.session_fallbacks = 0
            || QCheck.Test.fail_reportf "%d fallbacks" d.Stats.session_fallbacks)
         && (fuel_zero d || QCheck.Test.fail_report "fuel exhausted")))

(* Lemma store: a fallback query asked twice on one session gets the
   same verdict, and the second time every conflict comes from the
   store — no new blocking clause, and seeded lemmas instead. The
   disjunctive hypothesis is held back, so the check falls back. *)
let test_session_lemma_reuse () =
  let s = Session.create () in
  Session.push s;
  Session.assert_hyp s (or_ [ eq x (int 1); eq x (int 2) ]);
  let goal = lt x (int 3) in
  let run () =
    let before = Stats.snapshot () in
    let v = Session.check_goal s goal in
    (v, Stats.diff (Stats.snapshot ()) before)
  in
  let v1, d1 = run () in
  let v2, d2 = run () in
  Alcotest.(check string) "first verdict" "valid" (verdict_kind v1);
  Alcotest.(check string) "same verdict" (verdict_kind v1) (verdict_kind v2);
  Alcotest.(check int) "both fell back" 2
    (d1.Stats.session_fallbacks + d2.Stats.session_fallbacks);
  Alcotest.(check bool) "first run learned" true
    (d1.Stats.blocking_clauses > 0 && s.Session.lemmas <> []);
  Alcotest.(check int) "no blocking clause the second time" 0
    d2.Stats.blocking_clauses;
  Alcotest.(check bool) "second run seeded" true (d2.Stats.lemmas_seeded > 0);
  Session.pop s

(* Every core a session stores is a theory conflict on its own: Unsat
   on a fresh theory state, whatever the query it came from. Checked
   over the sessions of every suite procedure. *)
let test_session_lemmas_unsat () =
  let cores =
    List.concat_map
      (fun (e : Suite.Programs.entry) ->
        let prog = e.Suite.Programs.prog in
        List.concat_map
          (fun p ->
            let session = Session.create () in
            ignore (Verifier.Exec.verify_proc ~session prog p);
            session.Session.lemmas)
          prog.Verifier.Exec.procs)
      Suite.Programs.all
  in
  Alcotest.(check bool) "the suite stores lemmas" true (cores <> []);
  List.iter
    (fun core ->
      let th = Theory.create () in
      List.iter (Theory.assert_literal th) core;
      match Theory.check th with
      | Theory.Unsat -> ()
      | _ ->
          Alcotest.failf "stored core is not a theory conflict: %s"
            (String.concat ", "
               (List.map
                  (fun (a : Theory.atom) ->
                    (if a.Theory.pos then "" else "not ")
                    ^ Term.to_string a.Theory.term)
                  core)))
    cores

(* Differential: a session driven through a random push/pop/assert
   interleaving must agree with the lemma-free one-shot
   [Solver.entails] on every check, with the hypotheses in scope at
   that point, and an [Invalid] model the session returns must not
   falsify a hypothesis in scope or satisfy the goal wherever
   [Term.eval_bool] can evaluate them. Asserts landing after pops
   exercise pop-then-reassert on shared solver state. Most comparisons
   draw from a small per-case pool, so disjunctive hypotheses over
   shared atoms make many fallbacks of one session that reuse each
   other's lemmas. *)
type sess_op = SPush | SPop | SAssert of Term.t | SCheck of Term.t

let pp_sess_op = function
  | SPush -> "push"
  | SPop -> "pop"
  | SAssert t -> "assert " ^ Term.to_string t
  | SCheck t -> "check " ^ Term.to_string t

let gen_sess_ops : sess_op list QCheck.Gen.t =
  let open QCheck.Gen in
  let* pool = list_repeat 5 gen_int_cmp in
  let cmp = frequency [ (3, oneofl pool); (1, gen_int_cmp) ] in
  let lit = oneof [ cmp; map Term.not_ cmp ] in
  (* The verifier's encodings of program booleans
     ([Baselogic.Kernel.binop_term]): a comparison is [ite(c, 1, 0)],
     [&&] and [||] are [ite(a = 0, 0, b)] and [ite(a = 0, b, 1)]; a
     branch on one asserts it [= 0] or [≠ 0]. *)
  let binop op a b = Option.get (Baselogic.Kernel.binop_term op a b) in
  let cmp01 = map (fun c -> Term.ite c (Term.int 1) (Term.int 0)) cmp in
  let prog_bool =
    oneof
      [
        cmp01;
        map2 (binop Heaplang.Ast.AndOp) cmp01 cmp01;
        map2 (binop Heaplang.Ast.OrOp) cmp01 cmp01;
      ]
  in
  let branch =
    map2
      (fun b taken ->
        let f = Term.eq b (Term.int 0) in
        if taken then Term.not_ f else f)
      prog_bool bool
  in
  let ite_le =
    let v = map Term.var (oneofl [ "x"; "y"; "z" ]) in
    map3
      (fun c (a, b) k -> Term.le (Term.ite c a b) (Term.int k))
      cmp (pair v v) (int_range (-3) 3)
  in
  let ilit = frequency [ (4, lit); (2, branch); (1, ite_le) ] in
  (* conjunctions assert cleanly; disjunctions and lifted [ite]s make
     several cases, and nested structure in goals multiplies them up
     to and past the bound, which forces the fallback path. *)
  let hyp =
    oneof
      [
        ilit;
        map2 (fun a b -> Term.and_ [ a; b ]) ilit ilit;
        map2 (fun a b -> Term.or_ [ a; b ]) lit lit;
        map3 (fun a b c -> Term.or_ [ a; b; c ]) lit lit lit;
        map2 (fun a b -> Term.or_ [ a; Term.and_ [ a; b ] ]) lit lit;
      ]
  in
  let goal =
    oneof
      [
        hyp;
        map2 (fun a b -> Term.or_ [ a; b ]) ilit ilit;
        map3 (fun a b c -> Term.and_ [ Term.or_ [ a; b ]; c ]) ilit ilit ilit;
        map2 Term.implies ilit ilit;
      ]
  in
  let op =
    frequency
      [
        (2, return SPush);
        (2, return SPop);
        (3, map (fun t -> SAssert t) hyp);
        (4, map (fun t -> SCheck t) goal);
      ]
  in
  (* At most one hypothesis per sequence puts an encoded literal under
     a disjunction: it has several cases, so it is held back, and a
     context of several such hypotheses costs the one-shot reference
     seconds per check. *)
  let encoded_disj =
    map2
      (fun a b -> SAssert (Term.or_ [ a; b ]))
      (oneof [ branch; ite_le ]) ilit
  in
  let* ops = list_size (int_range 6 24) op in
  let* extra =
    opt ~ratio:0.3 (pair (int_bound (List.length ops)) encoded_disj)
  in
  return
    (match extra with
    | None -> ops
    | Some (i, h) ->
        List.filteri (fun j _ -> j < i) ops
        @ (h :: List.filteri (fun j _ -> j >= i) ops))

(* Drive [s] through [ops], mirroring the hypotheses in scope, and call
   [check hyps g] at every [SCheck g] with the hypotheses in scope
   (oldest-first). *)
let run_sess_ops s ops check =
  (* mirror: stack of frames, each newest-first *)
  let frames = ref [ [] ] in
  List.iter
    (fun op ->
      match op with
      | SPush ->
          Session.push s;
          frames := [] :: !frames
      | SPop -> (
          match !frames with
          | _ :: (_ :: _ as rest) ->
              Session.pop s;
              frames := rest
          | _ -> () (* no open frame: skip *))
      | SAssert t -> (
          Session.assert_hyp s t;
          match !frames with
          | f :: rest -> frames := (t :: f) :: rest
          | [] -> assert false)
      | SCheck g -> check (List.rev (List.concat !frames)) g)
    ops

let session_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"session-vs-oneshot" ~count:300
       (QCheck.make
          ~print:(fun ops -> String.concat "; " (List.map pp_sess_op ops))
          gen_sess_ops)
       (fun ops ->
         let s = Session.create () in
         let ok = ref true in
         run_sess_ops s ops (fun hyps g ->
             let expect = Solver.entails ~hyps g in
             let got = Session.check_goal s g in
             if verdict_kind expect <> verdict_kind got then ok := false;
             match got with
             | Solver.Invalid { Solver.ints = env; _ } ->
                 if
                   List.exists
                     (fun h -> Term.eval_bool ~env h = Some false)
                     hyps
                   || Term.eval_bool ~env g = Some true
                 then ok := false
             | _ -> ());
         !ok))

(* Push each of [hyps] in its own frame of a fresh session. *)
let session_of hyps =
  let s = Session.create () in
  List.iter
    (fun h ->
      Session.push s;
      Session.assert_hyp s h)
    hyps;
  s

(* [f ()] and what it moved in the session counters. *)
let counting f =
  let before = Stats.snapshot () in
  let r = f () in
  (r, Stats.diff (Stats.snapshot ()) before)

(* max3 ([examples/max3.hl]) as symbolic execution hands it to a
   session: each path condition is a branch on the [ite(c, 1, 0)]
   encoding of a comparison, and the postcondition has [result]
   replaced by the path's value, so the smart constructors fold its
   trivial conjuncts and disjuncts. The disjunction itself is also
   asked of a [result] variable the context defines. The session
   decides every feasibility check and postcondition without a
   fallback. *)
let test_session_max3 () =
  let a = var "a" and b = var "b" and c = var "c" and r = var "result" in
  let ge01 p q =
    Option.get (Baselogic.Kernel.binop_term Heaplang.Ast.Ge p q)
  in
  let taken t = not_ (eq t (int 0)) and not_taken t = eq t (int 0) in
  let one_of r = or_ [ eq r a; eq r b; eq r c ] in
  let post r = and_ [ ge r a; ge r b; ge r c; one_of r ] in
  let paths =
    [
      ([ taken (ge01 a b); taken (ge01 a c) ], a);
      ([ taken (ge01 a b); not_taken (ge01 a c) ], c);
      ([ not_taken (ge01 a b); taken (ge01 b c) ], b);
      ([ not_taken (ge01 a b); not_taken (ge01 b c) ], c);
    ]
  in
  let (), d =
    counting (fun () ->
        List.iter
          (fun (pcs, v) ->
            let s = session_of pcs in
            (match Session.check_goal s fls with
            | Solver.Invalid _ -> ()
            | v -> Alcotest.failf "feasible path: %s" (verdict_kind v));
            Alcotest.(check string) "postcondition" "valid"
              (verdict_kind (Session.check_goal s (post v)));
            Alcotest.(check string) "wrong postcondition" "invalid"
              (verdict_kind (Session.check_goal s (lt v a)));
            let s = session_of (pcs @ [ eq r v ]) in
            Alcotest.(check string) "disjunctive postcondition" "valid"
              (verdict_kind (Session.check_goal s (one_of r))))
          paths)
  in
  Alcotest.(check int) "no fallback" 0 d.Stats.session_fallbacks;
  Alcotest.(check bool) "split probes" true (d.Stats.session_split_probes > 0)

(* Context disequalities are split in scope. [x ≠ y, x ≤ y ≤ x + 1]
   and [y ≠ z, y ≤ z ≤ y + 1] pin [z = x + 2] over the integers, which
   no theory check of the unsplit context establishes; the goal's own
   disequality makes 2 × 2 × 2 = 8 branches. *)
let test_session_ctx_neqs () =
  let hyps =
    [
      not_ (eq x y); le x y; le y (add x (int 1));
      not_ (eq y z); le y z; le z (add y (int 1));
    ]
  in
  let s = session_of hyps in
  let holds env = List.for_all (fun h -> eval_bool ~env h = Some true) hyps in
  (match Session.context_status s with
  | Session.CtxSat m ->
      Alcotest.(check bool) "context model satisfies the context" true (holds m)
  | _ -> Alcotest.fail "a split context has a trusted model");
  let v, d = counting (fun () -> Session.check_goal s (eq z (add x (int 2)))) in
  Alcotest.(check string) "entailed" "valid" (verdict_kind v);
  Alcotest.(check int) "no fallback" 0 d.Stats.session_fallbacks;
  Alcotest.(check int) "eight branches" 7 d.Stats.session_split_probes;
  let v, d = counting (fun () -> Session.check_goal s (eq z x)) in
  (match v with
  | Solver.Invalid { Solver.ints; _ } ->
      Alcotest.(check bool) "counter-model satisfies the context" true
        (holds ints)
  | v -> Alcotest.failf "z = x: expected invalid, got %s" (verdict_kind v));
  Alcotest.(check int) "no fallback either" 0 d.Stats.session_fallbacks

(* The branch bound: a chain of three context disequalities makes
   2^3 = 8 branches and is decided in the session; four would make 16,
   so they stay unsplit and a [Sat] probe falls back under
   [fallback_ctx_neq]. *)
let test_session_neq_bound () =
  let xi i = var (Printf.sprintf "x%d" i) in
  let check n =
    let s = session_of (List.init n (fun i -> not_ (eq (xi i) (xi (i + 1))))) in
    counting (fun () -> Session.check_goal s (le (xi 0) (xi n)))
  in
  let v, d = check 3 in
  Alcotest.(check string) "three: invalid" "invalid" (verdict_kind v);
  Alcotest.(check int) "three: no fallback" 0 d.Stats.session_fallbacks;
  let v, d = check 4 in
  Alcotest.(check string) "four: invalid" "invalid" (verdict_kind v);
  Alcotest.(check int) "four: one fallback" 1 d.Stats.session_fallbacks;
  Alcotest.(check int) "four: under ctx_neq" 1 d.Stats.fallback_ctx_neq

(* [Session.separated] answers from the cached context status: a
   trusted model with a context-fresh side separates, nothing else
   does. *)
let test_session_separated () =
  let x = Term.var "x" and y = Term.var "y" and w = Term.var "w" in
  let s = Session.create () in
  Session.assert_hyp s (Term.le x y);
  Alcotest.(check bool) "fresh side" true (Session.separated s w x);
  Alcotest.(check bool) "fresh right side" true (Session.separated s x w);
  Alcotest.(check bool) "both in context" false (Session.separated s x y);
  Alcotest.(check bool) "w on both sides" false
    (Session.separated s w (Term.add w (Term.int 1)));
  Session.oneshot := true;
  let under_oneshot =
    Fun.protect
      ~finally:(fun () -> Session.oneshot := false)
      (fun () -> Session.separated s w x)
  in
  Alcotest.(check bool) "never under oneshot" false under_oneshot;
  let under hyp =
    Session.push s;
    Session.assert_hyp s hyp;
    let r = Session.separated s w x in
    Session.pop s;
    r
  in
  Alcotest.(check bool) "disequality in scope, split" true
    (under (Term.not_ (Term.eq x y)));
  Alcotest.(check bool) "held-back disjunction" false
    (under (Term.or_ [ Term.lt x y; Term.lt y x ]));
  Alcotest.(check bool) "inconsistent context" false
    (under (Term.lt y x))

(* [Session.separated] is sound: whenever it calls a pair separated,
   the one-shot solver does not find the pair's equality entailed by
   the hypotheses in scope — and it never does so over a context with
   a held-back hypothesis, whose models it cannot trust. A trusted
   context model ([CtxSat]) satisfies every hypothesis in scope it can
   evaluate, disequalities included. The contexts are the
   differential's; the pairs mix the context's variables with two it
   never mentions. *)
let sep_side =
  let open QCheck.Gen in
  let v = map Term.var (oneofl [ "x"; "y"; "z"; "w"; "u" ]) in
  frequency
    [
      (4, v);
      (1, map2 (fun t k -> Term.add t (Term.int k)) v (int_range (-2) 2));
      (1, map (fun t -> Term.app "f" [ t ]) v);
    ]

let sep_case =
  QCheck.Gen.(
    pair gen_sess_ops (list_size (int_range 1 4) (pair sep_side sep_side)))

let print_sep_case (ops, pairs) =
  String.concat "; " (List.map pp_sess_op ops)
  ^ " | pairs "
  ^ String.concat ", "
      (List.map
         (fun (a, b) -> Term.to_string a ^ " ~ " ^ Term.to_string b)
         pairs)

let session_separated_sound =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"session-separated-sound" ~count:300
       (QCheck.make ~print:print_sep_case sep_case) (fun (ops, pairs) ->
         let s = Session.create () in
         let ok = ref true in
         run_sess_ops s (ops @ [ SCheck Term.fls ]) (fun hyps _ ->
             (match Session.context_status s with
             | Session.CtxSat env ->
                 if
                   List.exists
                     (fun h -> Term.eval_bool ~env h = Some false)
                     hyps
                 then ok := false
             | _ -> ());
             List.iter
               (fun (a, b) ->
                 if Session.separated s a b then
                   if
                     s.Session.nonlit > 0
                     || verdict_kind (Solver.entails ~hyps (Term.eq a b))
                        = "valid"
                   then ok := false)
               pairs);
         !ok))

(* The allocation-free [Session.separated] answers what its reference
   definition does: a trusted context model ([CtxSat]) and at least one
   [fresh_sides] orientation. Same contexts and pairs as the soundness
   property above. *)
let session_separated_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"session-separated-vs-reference" ~count:300
       (QCheck.make ~print:print_sep_case sep_case) (fun (ops, pairs) ->
         let s = Session.create () in
         let ok = ref true in
         run_sess_ops s (ops @ [ SCheck Term.fls ]) (fun _ _ ->
             List.iter
               (fun (a, b) ->
                 let reference =
                   (match Session.context_status s with
                   | Session.CtxSat _ -> true
                   | _ -> false)
                   && Session.fresh_sides s a b <> []
                 in
                 if Session.separated s a b <> reference then ok := false)
               pairs);
         !ok))

(* What a session spends in theory checks. A session makes its theory
   state on first use, and an empty context is [CtxSat] with the empty
   model without a check: the model a fresh theory state's check gives,
   once the theory's own [%] names are dropped. *)
let test_session_cost_units () =
  let theory_checks () = (Stats.snapshot ()).Stats.theory_checks in
  Stats.reset ();
  let s = Session.create () in
  (match Session.check_goal s Term.fls with
  | Solver.Invalid { Solver.ints; _ } ->
      Alcotest.(check bool) "empty model" true (Stdx.Smap.is_empty ints)
  | v ->
      Alcotest.failf "fresh session: expected invalid, got %s"
        (verdict_kind v));
  Alcotest.(check int) "fresh session: no theory check" 0 (theory_checks ());
  Alcotest.(check bool) "fresh session: no theory state" true
    (Option.is_none s.Session.th);
  let fresh_model =
    match Theory.check (Theory.create ()) with
    | Theory.Sat m -> Stdx.Smap.filter (fun x _ -> x.[0] <> '%') m
    | _ -> Alcotest.fail "a fresh theory state must be Sat"
  in
  Stats.reset ();
  (match Session.context_status s with
  | Session.CtxSat m ->
      Alcotest.(check (list (pair string int)))
        "empty-context model = fresh theory model"
        (Stdx.Smap.bindings fresh_model) (Stdx.Smap.bindings m)
  | _ -> Alcotest.fail "empty context must be CtxSat");
  Alcotest.(check int) "empty context: no theory check" 0 (theory_checks ());
  Session.push s;
  Session.assert_hyp s (Term.le x y);
  Stats.reset ();
  ignore (Session.check_goal s Term.fls);
  Alcotest.(check int) "first context check: one theory check" 1
    (theory_checks ());
  ignore (Session.check_goal s Term.fls);
  ignore (Session.separated s z x);
  Alcotest.(check int) "unchanged context: cached" 1 (theory_checks ());
  Session.pop s;
  Stats.reset ();
  ignore (Session.check_goal s Term.fls);
  Alcotest.(check int) "popped to empty: no theory check" 0 (theory_checks ())

(* ------------------------------------------------------------------ *)
(* Hash-consed terms: differential properties against a reference AST.

   The term representation interns every node; these tests pin that the
   smart constructors still mean what the seed's plain constructors
   meant (eval / vars / subst agree with an independent reference
   implementation), and that interning delivers what it promises:
   structurally equal constructions are physically equal. *)

type iexp =
  | RInt of int
  | RVar of string
  | RApp of string * iexp
  | RAdd of iexp * iexp
  | RSub of iexp * iexp
  | RMul of iexp * iexp
  | RIte of bform * iexp * iexp

and bform =
  | RTrue
  | RFalse
  | RBvar of string
  | REq of iexp * iexp
  | RLe of iexp * iexp
  | RLt of iexp * iexp
  | RNot of bform
  | RAnd of bform * bform
  | ROr of bform * bform
  | RImp of bform * bform
  | RIff of bform * bform

let rec build_i = function
  | RInt n -> int n
  | RVar v -> var v
  | RApp (f, a) -> app f [ build_i a ]
  | RAdd (a, b) -> add (build_i a) (build_i b)
  | RSub (a, b) -> sub (build_i a) (build_i b)
  | RMul (a, b) -> mul (build_i a) (build_i b)
  | RIte (c, a, b) -> ite (build_b c) (build_i a) (build_i b)

and build_b = function
  | RTrue -> tru
  | RFalse -> fls
  | RBvar p -> bvar p
  | REq (a, b) -> eq (build_i a) (build_i b)
  | RLe (a, b) -> le (build_i a) (build_i b)
  | RLt (a, b) -> lt (build_i a) (build_i b)
  | RNot a -> not_ (build_b a)
  | RAnd (a, b) -> and_ [ build_b a; build_b b ]
  | ROr (a, b) -> or_ [ build_b a; build_b b ]
  | RImp (a, b) -> implies (build_b a) (build_b b)
  | RIff (a, b) -> iff (build_b a) (build_b b)

(* A fixed but arbitrary interpretation for uninterpreted symbols, so
   applications evaluate on both sides. *)
let uf f vs = Some ((Hashtbl.hash (f, vs) mod 17) - 8)

let rec reval_i env = function
  | RInt n -> n
  | RVar v -> Stdx.Smap.find v env
  | RApp (f, a) -> Option.get (uf f [ reval_i env a ])
  | RAdd (a, b) -> reval_i env a + reval_i env b
  | RSub (a, b) -> reval_i env a - reval_i env b
  | RMul (a, b) -> reval_i env a * reval_i env b
  | RIte (c, a, b) -> if reval_b env c then reval_i env a else reval_i env b

and reval_b env = function
  | RTrue -> true
  | RFalse -> false
  | RBvar p -> Stdx.Smap.find p env <> 0
  | REq (a, b) -> reval_i env a = reval_i env b
  | RLe (a, b) -> reval_i env a <= reval_i env b
  | RLt (a, b) -> reval_i env a < reval_i env b
  | RNot a -> not (reval_b env a)
  | RAnd (a, b) -> reval_b env a && reval_b env b
  | ROr (a, b) -> reval_b env a || reval_b env b
  | RImp (a, b) -> (not (reval_b env a)) || reval_b env b
  | RIff (a, b) -> reval_b env a = reval_b env b

let rec rvars_i acc = function
  | RInt _ -> acc
  | RVar v -> (v, Sort.Int) :: acc
  | RApp (_, a) -> rvars_i acc a
  | RAdd (a, b) | RSub (a, b) | RMul (a, b) -> rvars_i (rvars_i acc a) b
  | RIte (c, a, b) -> rvars_i (rvars_i (rvars_b acc c) a) b

and rvars_b acc = function
  | RTrue | RFalse -> acc
  | RBvar p -> (p, Sort.Bool) :: acc
  | REq (a, b) | RLe (a, b) | RLt (a, b) -> rvars_i (rvars_i acc a) b
  | RNot a -> rvars_b acc a
  | RAnd (a, b) | ROr (a, b) | RImp (a, b) | RIff (a, b) ->
      rvars_b (rvars_b acc a) b

(* Simultaneous substitution on the reference AST: replace [RVar x]
   wholesale, without re-substituting inside the replacement — the
   contract of [Term.subst]. *)
let rec rsubst_i x r = function
  | RInt _ as e -> e
  | RVar v as e -> if String.equal v x then r else e
  | RApp (f, a) -> RApp (f, rsubst_i x r a)
  | RAdd (a, b) -> RAdd (rsubst_i x r a, rsubst_i x r b)
  | RSub (a, b) -> RSub (rsubst_i x r a, rsubst_i x r b)
  | RMul (a, b) -> RMul (rsubst_i x r a, rsubst_i x r b)
  | RIte (c, a, b) -> RIte (rsubst_b x r c, rsubst_i x r a, rsubst_i x r b)

and rsubst_b x r = function
  | (RTrue | RFalse | RBvar _) as e -> e
  | REq (a, b) -> REq (rsubst_i x r a, rsubst_i x r b)
  | RLe (a, b) -> RLe (rsubst_i x r a, rsubst_i x r b)
  | RLt (a, b) -> RLt (rsubst_i x r a, rsubst_i x r b)
  | RNot a -> RNot (rsubst_b x r a)
  | RAnd (a, b) -> RAnd (rsubst_b x r a, rsubst_b x r b)
  | ROr (a, b) -> ROr (rsubst_b x r a, rsubst_b x r b)
  | RImp (a, b) -> RImp (rsubst_b x r a, rsubst_b x r b)
  | RIff (a, b) -> RIff (rsubst_b x r a, rsubst_b x r b)

let gen_iexp, gen_bform =
  let open QCheck.Gen in
  let leaf_i =
    oneof
      [
        map (fun n -> RInt n) (int_range (-5) 5);
        map (fun v -> RVar v) (oneofl [ "x"; "y"; "z" ]);
      ]
  in
  let rec go_i n =
    if n = 0 then leaf_i
    else
      frequency
        [
          (2, leaf_i);
          (1, map (fun a -> RApp ("f", a)) (go_i (n - 1)));
          (2, map2 (fun a b -> RAdd (a, b)) (go_i (n - 1)) (go_i (n - 1)));
          (2, map2 (fun a b -> RSub (a, b)) (go_i (n - 1)) (go_i (n - 1)));
          (1, map2 (fun a b -> RMul (a, b)) (go_i (n - 1)) (go_i (n - 1)));
          ( 1,
            map3
              (fun c a b -> RIte (c, a, b))
              (go_b (n - 1)) (go_i (n - 1)) (go_i (n - 1)) );
        ]
  and go_b n =
    let leaf_b =
      oneofl [ RTrue; RFalse; RBvar "p"; RBvar "q" ]
    in
    if n = 0 then leaf_b
    else
      frequency
        [
          (1, leaf_b);
          (2, map2 (fun a b -> REq (a, b)) (go_i (n - 1)) (go_i (n - 1)));
          (2, map2 (fun a b -> RLe (a, b)) (go_i (n - 1)) (go_i (n - 1)));
          (2, map2 (fun a b -> RLt (a, b)) (go_i (n - 1)) (go_i (n - 1)));
          (2, map (fun a -> RNot a) (go_b (n - 1)));
          (2, map2 (fun a b -> RAnd (a, b)) (go_b (n - 1)) (go_b (n - 1)));
          (2, map2 (fun a b -> ROr (a, b)) (go_b (n - 1)) (go_b (n - 1)));
          (1, map2 (fun a b -> RImp (a, b)) (go_b (n - 1)) (go_b (n - 1)));
          (1, map2 (fun a b -> RIff (a, b)) (go_b (n - 1)) (go_b (n - 1)));
        ]
  in
  (go_i 4, go_b 4)

let gen_env =
  let open QCheck.Gen in
  map3
    (fun vx vy vz ->
      Stdx.Smap.of_seq
        (List.to_seq
           [ ("x", vx); ("y", vy); ("z", vz); ("p", vx land 1); ("q", vy land 1) ]))
    (int_range (-8) 8) (int_range (-8) 8) (int_range (-8) 8)

let hashcons_physical_eq =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"equal-constructions-physically-equal" ~count:300
       (QCheck.make QCheck.Gen.(pair gen_iexp gen_bform))
       (fun (a, f) ->
         (* Two independent constructions of the same structure must
            intern to the same node: [==], same id. *)
         let t1 = build_i a and t2 = build_i a in
         let u1 = build_b f and u2 = build_b f in
         t1 == t2
         && Term.equal t1 t2
         && Term.id t1 = Term.id t2
         && u1 == u2
         (* and never the front cache's empty-slot sentinel (tag -1) *)
         && Term.id t1 >= 0
         && Term.id u1 >= 0))

(* The front cache's empty slots hold a sentinel whose node is [True];
   interning [True] must still give the pooled term. *)
let test_hashcons_no_sentinel () =
  Alcotest.(check bool) "Term.tru has an id" true (Term.id Term.tru >= 0);
  Alcotest.(check bool) "Term.bool true has an id" true
    (Term.id (Term.bool true) >= 0);
  Alcotest.(check bool) "Term.bool true is Term.tru" true
    (Term.bool true == Term.tru)

let hashcons_eval =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"eval-vs-reference" ~count:500
       (QCheck.make QCheck.Gen.(triple gen_iexp gen_bform gen_env))
       (fun (a, f, env) ->
         Term.eval ~env ~on_app:uf (build_i a) = Some (reval_i env a)
         && Term.eval_bool ~env ~on_app:uf (build_b f) = Some (reval_b env f)))

(* An independent [vars] over the interned representation, driven
   through [Term.view] only. *)
let rec tvars acc t =
  match Term.view t with
  | Term.Var (v, s) -> (v, s) :: acc
  | Term.Int_lit _ | Term.True | Term.False -> acc
  | Term.App (_, args) | Term.Pred (_, args) -> List.fold_left tvars acc args
  | Term.Add (a, b) | Term.Sub (a, b) | Term.Mul (a, b)
  | Term.Eq (a, b) | Term.Le (a, b) | Term.Lt (a, b)
  | Term.Implies (a, b) | Term.Iff (a, b) ->
      tvars (tvars acc a) b
  | Term.Ite (c, a, b) -> tvars (tvars (tvars acc c) a) b
  | Term.Not a -> tvars acc a
  | Term.And ts | Term.Or ts -> List.fold_left tvars acc ts

let hashcons_vars =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"vars-vs-reference" ~count:300
       (QCheck.make gen_iexp)
       (fun a ->
         let t = build_i a in
         (* Exact agreement with a view-based recomputation; constant
            folding may only ever {e drop} variables relative to the
            source AST, never invent them. *)
         Term.vars t = List.sort_uniq Stdlib.compare (tvars [] t)
         && List.for_all
              (fun v -> List.mem v (rvars_i [] a))
              (Term.vars t)))

(* [Term.occurs] answers what the variable list does, with no list. *)
let hashcons_occurs =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"occurs-vs-vars" ~count:500
       (QCheck.make QCheck.Gen.(pair gen_iexp gen_bform))
       (fun (a, f) ->
         List.for_all
           (fun t ->
             List.for_all
               (fun x -> Term.occurs x t = List.mem_assoc x (Term.vars t))
               [ "x"; "y"; "z"; "p"; "q"; "w" ])
           [ build_i a; build_b f ]))

let hashcons_subst =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"subst-vs-reference" ~count:300
       (QCheck.make QCheck.Gen.(triple gen_bform gen_iexp gen_env))
       (fun (f, r, env) ->
         (* Substituting at the term level must coincide — physically,
            thanks to interning — with substituting at the AST level
            and rebuilding; and evaluation must commute with it. *)
         let m = Stdx.Smap.singleton "x" (build_i r) in
         let t = Term.subst m (build_b f) in
         t == build_b (rsubst_b "x" r f)
         && Term.eval_bool ~env ~on_app:uf t
            = Some (reval_b env (rsubst_b "x" r f))))

(* ------------------------------------------------------------------ *)
(* SAT core: random CNF vs brute force, with database reduction forced.

   [max_learnts] is dropped to 2 so [reduce_db] fires on nearly every
   decision — clause deletion, watch purging, and the activity heap all
   run constantly, and the verdict must still match exhaustive
   enumeration (and on Sat, the model must satisfy every clause). *)

let gen_cnf : int list list QCheck.Gen.t =
  let open QCheck.Gen in
  let lit = map2 (fun v s -> if s then v + 1 else -(v + 1)) (int_bound 7) bool in
  list_size (int_range 1 40) (list_size (int_range 1 3) lit)

let cnf_brute_sat (cnf : int list list) =
  let n = 8 in
  let sat_under assignment =
    List.for_all
      (List.exists (fun l ->
           let v = abs l - 1 in
           let bit = assignment land (1 lsl v) <> 0 in
           if l > 0 then bit else not bit))
      cnf
  in
  let rec go a = a < 1 lsl n && (sat_under a || go (a + 1)) in
  go 0

let sat_reduce_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"sat-reduce-db-vs-brute-force" ~count:300
       (QCheck.make
          ~print:(fun cnf ->
            String.concat " & "
              (List.map
                 (fun c ->
                   "(" ^ String.concat "|" (List.map string_of_int c) ^ ")")
                 cnf))
          gen_cnf)
       (fun cnf ->
         let s = Sat.create () in
         s.Sat.max_learnts <- 2;
         let enc l = Sat.lit_of_var ~neg:(l < 0) (abs l - 1) in
         let ok = List.for_all (fun c -> Sat.add_clause s (List.map enc c)) cnf in
         match (ok, if ok then Sat.solve s else Sat.Unsat) with
         | false, _ | _, Sat.Unsat -> not (cnf_brute_sat cnf)
         | _, Sat.Sat ->
             List.for_all
               (List.exists (fun l ->
                    let v = abs l - 1 in
                    let b = v < 8 && Sat.model_value s v in
                    if l > 0 then b else not b))
               cnf
         | _, (Sat.Unknown | Sat.Resource_out) -> false))

(* [Term.add]/[sub]/[mul] fold two literals to the exact result
   ({!Int_ref}); when it does not fit, the node stays symbolic. They
   never wrap. *)
let fold_exact =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"fold-exact-or-symbolic" ~count:2000
       (QCheck.make ~print:QCheck.Print.(pair int int)
          (QCheck.Gen.pair Int_ref.operand Int_ref.operand))
       (fun (a, b) ->
         List.for_all
           (fun (build, r) ->
             match (Term.view (build (int a) (int b)), r a b) with
             | Term.Int_lit n, Some m -> n = m
             | (Term.Add _ | Term.Sub _ | Term.Mul _), None -> true
             | _ -> false)
           [ (add, Int_ref.add); (sub, Int_ref.sub); (mul, Int_ref.mul) ]))

let hashcons_cases =
  [
    fold_exact;
    hashcons_physical_eq;
    Alcotest.test_case "no-sentinel" `Quick test_hashcons_no_sentinel;
    hashcons_eval;
    hashcons_vars;
    hashcons_occurs;
    hashcons_subst;
  ]

let session_cases =
  [
    Alcotest.test_case "euf-chain-counts" `Quick test_euf_chain_counts;
    Alcotest.test_case "pigeonhole-counts" `Quick test_pigeonhole_counts;
    Alcotest.test_case "session-euf-chain" `Quick test_session_euf_chain;
    Alcotest.test_case "session-pop-reassert" `Quick test_session_pop_reassert;
    Alcotest.test_case "session-poly-no-wrap" `Quick test_session_poly_no_wrap;
    session_linear_chains;
    Alcotest.test_case "session-lemma-reuse" `Quick test_session_lemma_reuse;
    Alcotest.test_case "session-lemmas-unsat" `Quick test_session_lemmas_unsat;
    session_differential;
    Alcotest.test_case "session-max3" `Quick test_session_max3;
    Alcotest.test_case "session-ctx-neqs" `Quick test_session_ctx_neqs;
    Alcotest.test_case "session-neq-bound" `Quick test_session_neq_bound;
    Alcotest.test_case "session-separated" `Quick test_session_separated;
    session_separated_sound;
    session_separated_reference;
    Alcotest.test_case "session-cost-units" `Quick test_session_cost_units;
  ]

let () =
  Alcotest.run "smt"
    [
      ("solver", solver_units);
      ( "model",
        [ Alcotest.test_case "model-soundness" `Quick test_model_soundness ] );
      ("simplex", [ Alcotest.test_case "units" `Quick test_simplex ]);
      ( "cc",
        [
          Alcotest.test_case "congruence" `Quick test_cc;
          Alcotest.test_case "numbers" `Quick test_cc_numbers;
        ] );
      ("sat", [ Alcotest.test_case "units" `Quick test_sat; sat_reduce_differential ]);
      ("hashcons", hashcons_cases);
      ( "differential",
        [
          differential;
          simplex_differential;
          simplex_incremental;
          theory_warm_vs_fresh;
          cc_random;
        ] );
      ("entails", entails_cases);
      ("session", session_cases);
    ]