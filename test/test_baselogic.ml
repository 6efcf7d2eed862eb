(** Soundness tests for the destabilized base logic.

    The centerpiece is the model checker: every kernel rule instance is
    evaluated in a family of finite models — all small global heaps,
    all small local resources compatible with them, several step
    indices, and all assignments of the free term variables — and the
    left-hand side must imply the right-hand side everywhere. This is
    the executable counterpart of the paper's Coq soundness proof.

    We also check that the checker has teeth: deliberately wrong
    "rules" (unstable framing, non-persistent duplication) are caught. *)

module A = Baselogic.Assertion
module GV = Baselogic.Ghost_val
module K = Baselogic.Kernel
module S = Baselogic.Semantics
module HT = Baselogic.Hterm
module T = Smt.Term
module HL = Heaplang.Ast
module Imap = S.Imap
open Stdx

(* ------------------------------------------------------------------ *)
(* The model family *)

let globals : int Imap.t list =
  (* Heaps over locations {0, 1} with values {0..2}; including partial
     ones. *)
  let cell l vs = List.map (fun v -> (l, v)) vs in
  let combine c0 c1 =
    List.concat_map
      (fun b0 -> List.map (fun b1 -> Imap.of_seq (List.to_seq (b0 @ b1))) c1)
      c0
  in
  combine
    ([ [] ] @ List.map (fun b -> [ b ]) (cell 0 [ 0; 1; 2 ]))
    ([ [] ] @ List.map (fun b -> [ b ]) (cell 1 [ 0; 1 ]))

let resources : S.res list =
  let heap_frag cells =
    Imap.of_seq
      (List.to_seq
         (List.map (fun (l, (q, v)) -> (l, (q, S.Agree_int.of_elt v))) cells))
  in
  let heaps =
    [ [] ]
    @ List.concat_map
        (fun v -> [ [ (0, (Q.one, v)) ]; [ (0, (Q.half, v)) ] ])
        [ 0; 1; 2 ]
    @ [
        [ (1, (Q.one, 0)) ];
        [ (1, (Q.one, 1)) ];
        [ (0, (Q.one, 1)); (1, (Q.one, 0)) ];
      ]
  in
  let own gv =
    Smap.singleton "g"
      (Option.get (S.eval_ghost_val Smap.empty Imap.empty gv))
  in
  let ghosts =
    [
      Smap.empty;
      own (GV.Auth_nat { auth = Some (T.int 2); frag = T.int 1 });
      own (GV.Auth_nat { auth = None; frag = T.int 1 });
      own (GV.Agree (T.int 1));
      own (GV.Excl (T.int 0));
      own (GV.Max_nat (T.int 2));
    ]
  in
  List.concat_map (fun g -> List.map (fun h -> (heap_frag h, g)) heaps) ghosts
  (* Ghost-only: the states the authoritative update rules start from
     and land in, so that neither holds vacuously. *)
  @ List.map
      (fun (n, m) ->
        (Imap.empty, own (GV.Auth_nat { auth = Some (T.int n); frag = T.int m })))
      [ (1, 1); (2, 2) ]

let model = { S.ints = [ -1; 0; 1; 2; 3 ]; resources; globals }

(** Check an entailment [lhs ⊢ rhs] over the model family. Free term
    variables are enumerated over a small range (capped at 3 vars). *)
let valid_entailment ?(penv = Smap.empty) (lhs : A.t) (rhs : A.t) : bool =
  let fvs =
    Listx.dedup ~compare:String.compare (A.free_vars lhs @ A.free_vars rhs)
  in
  assert (List.length fvs <= 3);
  let rec envs acc = function
    | [] -> [ acc ]
    | x :: rest ->
        List.concat_map (fun v -> envs (Smap.add x v acc) rest) [ 0; 1; 2 ]
  in
  List.for_all
    (fun env ->
      List.for_all
        (fun sigma ->
          List.for_all
            (fun r ->
              (not (S.compat sigma r))
              || List.for_all
                   (fun step ->
                     (not (S.eval model penv env ~step sigma r lhs))
                     || S.eval model penv env ~step sigma r rhs)
                   [ 0; 1; 3 ])
            model.S.resources)
        model.S.globals)
    (envs Smap.empty fvs)

let check_rule name (thm : K.theorem) =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check bool) name true
        (valid_entailment ~penv:(K.penv thm) (K.lhs thm) (K.rhs thm)))

let check_invalid name lhs rhs =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check bool) name false (valid_entailment lhs rhs))

(* ------------------------------------------------------------------ *)
(* Rule instances *)

let l0 = T.int 0
let va = T.var "a"
let pt ?frac l v = A.points_to ?frac l v
let pure_ab = A.Pure (T.le va (T.int 5))

let p1 = pt l0 va
let p2 = A.Ghost ("g", GV.Auth_nat { auth = None; frag = T.int 1 })
let p3 = A.Pure (T.eq (HT.deref l0) va)  (* heap-dependent, unstable *)

let structural_rules =
  [
    check_rule "refl" (K.refl p1);
    check_rule "sep-comm" (K.sep_comm p1 p2);
    check_rule "sep-assoc-r" (K.sep_assoc_r p1 p2 pure_ab);
    check_rule "sep-assoc-l" (K.sep_assoc_l p1 p2 pure_ab);
    check_rule "sep-weaken" (K.sep_weaken_l p1 p2);
    check_rule "emp-sep-intro" (K.emp_sep_intro p1);
    check_rule "emp-sep-elim" (K.emp_sep_elim p1);
    check_rule "emp-intro" (K.emp_intro p1);
    check_rule "sep-mono" (K.sep_mono (K.sep_weaken_l p2 p1) (K.refl pure_ab));
    check_rule "wand-elim" (K.wand_elim p1 p2);
    check_rule "wand-intro"
      (K.wand_intro (K.sep_comm p1 p2) );
    check_rule "and-intro" (K.and_intro (K.refl p1) (K.emp_intro p1));
    check_rule "and-elim-l" (K.and_elim_l p1 p2);
    check_rule "and-elim-r" (K.and_elim_r p1 p2);
    check_rule "or-intro-l" (K.or_intro_l p1 p2);
    check_rule "or-intro-r" (K.or_intro_r p1 p2);
    check_rule "or-elim" (K.or_elim (K.emp_intro p1) (K.emp_intro p2));
  ]

let pure_rules =
  [
    check_rule "pure-intro" (K.pure_intro p1 (T.le va (T.add va (T.int 1))));
    check_rule "pure-entail"
      (K.pure_entail ~hyps:[ T.le va (T.int 2) ] (T.le va (T.int 5)));
    check_rule "pure-false-elim" (K.pure_false_elim p1);
    check_rule "exists-intro" (K.exists_intro "x" (pt l0 (T.var "x")) va);
    check_rule "exists-elim"
      (K.exists_elim "x" (K.emp_intro (pt l0 (T.var "x"))));
    check_rule "forall-elim" (K.forall_elim "x" (pt l0 (T.var "x")) (T.int 1));
  ]

let heap_rules =
  [
    check_rule "points-to-agree"
      (K.points_to_agree Q.half Q.half l0 va (T.var "b"));
    check_rule "points-to-split" (K.points_to_split l0 Q.half Q.half va);
    check_rule "points-to-join" (K.points_to_join l0 Q.half Q.half va);
    (* The signature rules of the destabilized logic: *)
    check_rule "deref-resolve"
      (K.deref_resolve Q.half l0 va (T.le (HT.deref l0) (T.int 5)));
    check_rule "deref-intro"
      (K.deref_intro Q.half l0 va (T.le (HT.deref l0) (T.int 5)));
  ]

let ghost_rules =
  [
    check_rule "ghost-valid"
      (K.ghost_valid "g" (GV.Auth_nat { auth = Some va; frag = T.int 1 }));
    check_rule "ghost-valid-negative-frag"
      (K.ghost_valid "g" (GV.Auth_nat { auth = None; frag = T.int (-1) }));
    check_rule "ghost-op-split"
      (K.ghost_op_split "g"
         (GV.Auth_nat { auth = Some (T.int 2); frag = T.int 1 })
         (GV.Auth_nat { auth = None; frag = T.int 0 }));
    check_rule "ghost-op-join"
      (K.ghost_op_join "g" (GV.Agree va) (GV.Agree (T.var "b")));
    check_rule "ghost-update"
      (K.ghost_update ~hyps:[] "g"
         (GV.Auth_nat { auth = Some (T.int 1); frag = T.int 1 })
         (GV.Auth_nat { auth = Some (T.int 2); frag = T.int 2 }));
    (* ghost_alloc is the fresh-name axiom: its soundness needs the
       allocated name to be absent from every frame, which a fixed
       finite universe cannot express — we check its side condition
       instead (below). *)
  ]

let modality_rules =
  [
    check_rule "persistently-elim" (K.persistently_elim pure_ab);
    check_rule "persistent-dup" (K.persistent_dup (A.Ghost ("g", GV.Max_nat (T.int 2))));
    check_rule "later-intro" (K.later_intro p1);
    check_rule "later-mono" (K.later_mono (K.sep_weaken_l p1 p2));
    check_rule "upd-intro" (K.upd_intro p1);
    check_rule "upd-mono" (K.upd_mono (K.sep_weaken_l p1 p2));
    check_rule "upd-trans" (K.upd_trans p1);
    check_rule "upd-frame" (K.upd_frame p2 p1);
    check_rule "stabilize-elim" (K.stabilize_elim p3);
    check_rule "stabilize-intro" (K.stabilize_intro p1);
    check_rule "stabilize-intro-covered"
      (K.stabilize_intro (A.Sep (p1, p3)));
    check_rule "stabilize-mono" (K.stabilize_mono (K.sep_weaken_l p2 p1));
    check_rule "stabilize-sep" (K.stabilize_sep p1 p2);
  ]

(* WP rules on tiny programs. *)
let wp_rules =
  let q = A.Pure (T.eq (T.var "res") va) in
  [
    check_rule "wp-value" (K.wp_value (HL.Sym "a") "res" q);
    check_rule "wp-load"
      (K.wp_load Q.one "l" va "res" (A.Pure (T.eq (T.var "res") va)));
    check_rule "wp-load-named"
      (K.wp_load_n Q.one "l" va "z" "res" (A.Pure (T.le (T.var "res") (T.var "res"))));
    check_rule "wp-store"
      (K.wp_store "l" va (HL.Int 1) (T.int 1) "res"
         (A.Exists ("w", A.points_to (T.var "l") (T.var "w"))));
    check_rule "wp-frame"
      (K.wp_frame p2 (HL.Val (HL.Int 0)) "res" A.Emp);
    check_rule "wp-pure-step"
      (K.wp_pure_step
         (HL.BinOp (HL.Add, HL.Val (HL.Int 1), HL.Val (HL.Int 2)))
         (HL.Val (HL.Int 3)) "res" (A.Pure (T.eq (T.var "res") (T.int 3))));
    check_rule "wp-assert"
      (K.wp_assert (T.int 1) "res" A.Emp);
  ]

(* The checker must reject wrong rules. *)
let negative_cases =
  [
    check_invalid "no-dup-points-to" p1 (A.Sep (p1, p1));
    check_invalid "no-unstable-stabilize" p3 (A.Stabilize p3);
    check_invalid "no-free-frame" A.Emp p1;
    check_invalid "no-value-change" (pt l0 (T.int 0)) (pt l0 (T.int 1));
    check_invalid "later-not-elim" (A.Later (pt l0 (T.int 9999))) (pt l0 (T.int 9999));
    (let frag1 = A.Ghost ("g", GV.Auth_nat { auth = None; frag = T.int 1 }) in
     check_invalid "no-dup-fragment" frag1 (A.Sep (frag1, frag1)));
    (let auth1 m = GV.Auth_nat { auth = Some (T.int 1); frag = T.int m } in
     check_invalid "no-nonlocal-auth-update"
       (A.Ghost ("g", auth1 1))
       (A.Upd (A.Ghost ("g", auth1 2))));
  ]

(* Kernel side conditions must reject bad instances. *)
let rule_error_cases =
  [
    Alcotest.test_case "stabilize-intro-rejects-unstable" `Quick (fun () ->
        match K.stabilize_intro p3 with
        | _ -> Alcotest.fail "must reject"
        | exception K.Rule_error _ -> ());
    Alcotest.test_case "wand-intro-rejects-unstable-ctx" `Quick (fun () ->
        match K.wand_intro (K.sep_comm p3 p1) with
        | _ -> Alcotest.fail "must reject"
        | exception K.Rule_error _ -> ());
    Alcotest.test_case "persistent-dup-rejects" `Quick (fun () ->
        match K.persistent_dup p1 with
        | _ -> Alcotest.fail "must reject"
        | exception K.Rule_error _ -> ());
    Alcotest.test_case "pure-intro-rejects-invalid" `Quick (fun () ->
        match K.pure_intro p1 (T.le va (T.int 0)) with
        | _ -> Alcotest.fail "must reject"
        | exception K.Rule_error _ -> ());
    Alcotest.test_case "points-to-join-rejects-over-1" `Quick (fun () ->
        match K.points_to_join l0 Q.one Q.half va with
        | _ -> Alcotest.fail "must reject"
        | exception K.Rule_error _ -> ());
    Alcotest.test_case "ghost-alloc-rejects-invalid" `Quick (fun () ->
        match
          K.ghost_alloc ~hyps:[] "h"
            (GV.Auth_nat { auth = Some (T.int 1); frag = T.int 2 })
        with
        | _ -> Alcotest.fail "must reject invalid element"
        | exception K.Rule_error _ -> ());
    Alcotest.test_case "ghost-update-rejects-bad-local" `Quick (fun () ->
        match
          K.ghost_update ~hyps:[] "g"
            (GV.Auth_nat { auth = Some (T.int 2); frag = T.int 0 })
            (GV.Auth_nat { auth = Some (T.int 1); frag = T.int 0 })
        with
        | _ -> Alcotest.fail "must reject"
        | exception K.Rule_error _ -> ());
  ]

(* entail_auto: random-ish instances are sound. *)
let entail_auto_cases =
  [
    Alcotest.test_case "entail-auto-basic" `Quick (fun () ->
        let hyps = [ p1; p2; A.Pure (T.eq va (T.int 1)) ] in
        let goal = A.Sep (pt l0 (T.int 1), p2) in
        let thm = K.entail_auto hyps goal in
        Alcotest.(check bool) "model-valid" true
          (valid_entailment (K.lhs thm) (K.rhs thm)));
    Alcotest.test_case "entail-auto-split-frac" `Quick (fun () ->
        let hyps = [ pt l0 va ] in
        let goal = pt ~frac:Q.half l0 va in
        let thm = K.entail_auto hyps goal in
        Alcotest.(check bool) "model-valid" true
          (valid_entailment (K.lhs thm) (K.rhs thm)));
    Alcotest.test_case "entail-auto-deref" `Quick (fun () ->
        (* The destabilized idiom: a pure goal reading the heap. *)
        let hyps = [ pt l0 va; A.Pure (T.le va (T.int 2)) ] in
        let goal = A.Pure (T.le (HT.deref l0) (T.int 2)) in
        let thm = K.entail_auto hyps goal in
        Alcotest.(check bool) "model-valid" true
          (valid_entailment (K.lhs thm) (K.rhs thm)));
    Alcotest.test_case "entail-auto-rejects" `Quick (fun () ->
        match K.entail_auto [ pt l0 va ] (pt l0 (T.add va (T.int 1))) with
        | _ -> Alcotest.fail "must reject"
        | exception K.Rule_error _ -> ());
  ]

(* Ghost_val semantics agrees with the concrete cameras. *)
let ghost_val_consistency =
  [
    Alcotest.test_case "compose-agree" `Quick (fun () ->
        match GV.compose (GV.Agree (T.int 1)) (GV.Agree (T.int 1)) with
        | Some (GV.Agree _, fact) ->
            Alcotest.(check bool) "fact holds" true
              (Smt.Solver.entails_bool fact)
        | _ -> Alcotest.fail "agree composes");
    Alcotest.test_case "compose-excl-none" `Quick (fun () ->
        Alcotest.(check bool) "excl never composes" true
          (GV.compose (GV.Excl (T.int 1)) (GV.Excl (T.int 1)) = None));
    Alcotest.test_case "valid-auth" `Quick (fun () ->
        let f =
          GV.valid_fact (GV.Auth_nat { auth = Some (T.int 3); frag = T.int 4 })
        in
        Alcotest.(check bool) "overdraw invalid" false
          (Smt.Solver.entails_bool f));
    Alcotest.test_case "frac-sum" `Quick (fun () ->
        match GV.compose (GV.Frac_tok Q.half) (GV.Frac_tok Q.half) with
        | Some (GV.Frac_tok q, _) ->
            Alcotest.(check bool) "half+half=1" true (Q.equal q Q.one)
        | _ -> Alcotest.fail "frac composes");
  ]

(* Every Ghost_val function agrees with the camera of its evaluated
   shape, at small random valuations of its terms. *)
module P = Camera.Registry.Packed

let gv_vars = [ "x"; "y"; "z"; "w" ]

let gen_ghost_val shape =
  let open QCheck.Gen in
  let v = map T.var (oneofl gv_vars) in
  match shape with
  | 0 -> map (fun t -> GV.Excl t) v
  | 1 -> map (fun t -> GV.Agree t) v
  | 2 ->
      map
        (fun q -> GV.Frac_tok q)
        (oneofl Q.[ zero; mk 1 4; half; mk 3 4; one; mk 5 4 ])
  | 3 -> map2 (fun auth frag -> GV.Auth_nat { auth; frag }) (opt v) v
  | 4 -> map (fun t -> GV.Max_nat t) v
  | _ -> return GV.Token

(* A valuation and two elements, mostly of one shape. *)
let arb_ghost_case =
  let open QCheck.Gen in
  let gen =
    let* shape = int_bound 5 in
    let* shape' = frequency [ (7, return shape); (1, int_bound 5) ] in
    let* a = gen_ghost_val shape in
    let* b = gen_ghost_val shape' in
    let+ vals = list_repeat (List.length gv_vars) (int_range (-1) 3) in
    (Smap.of_list (List.combine gv_vars vals), a, b)
  in
  QCheck.make gen ~print:(fun (env, a, b) ->
      Fmt.str "%a | %a | %a"
        Fmt.(list ~sep:comma (pair ~sep:(any "=") string int))
        (Smap.bindings env) GV.pp a GV.pp b)

let camera_of env gv = Option.get (S.eval_ghost_val env Imap.empty gv)
let holds env t = T.eval_bool ~env t = Some true

(* Update frames: every valid element of every shape at small values. *)
module Frames = struct
  include P

  let elements =
    let ns = List.map T.int [ 0; 1; 2; 3 ] in
    List.concat
      [
        List.concat_map (fun n -> [ GV.Excl n; GV.Agree n; GV.Max_nat n ]) ns;
        List.map (fun q -> GV.Frac_tok q) Q.[ mk 1 4; half; mk 3 4; one ];
        List.concat_map
          (fun m ->
            List.map
              (fun auth -> GV.Auth_nat { auth; frag = m })
              (None :: List.map Option.some ns))
          ns;
        [ GV.Token ];
      ]
    |> List.map (camera_of Smap.empty)
    |> List.filter P.valid
end

let ghost_camera_prop name law =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:("camera-" ^ name) ~count:2000 arb_ghost_case
       (fun (env, a, b) -> law env a b))

let ghost_val_camera =
  [
    ghost_camera_prop "valid-fact" (fun env a _ ->
        holds env (GV.valid_fact a) = P.valid (camera_of env a));
    (* Only valid operands matter: [own] of an invalid element never
       holds. *)
    ghost_camera_prop "compose" (fun env a b ->
        let ea = camera_of env a and eb = camera_of env b in
        let ab = P.op ea eb in
        (not (P.valid ea && P.valid eb))
        ||
        match GV.compose a b with
        | None -> not (P.valid ab)
        | Some (c, fact) ->
            if holds env fact then P.equal (camera_of env c) ab
            else not (P.valid ab));
    ghost_camera_prop "sub-condition" (fun env a b ->
        match GV.sub_condition ~goal:a ~chunk:b with
        | Some c when holds env c ->
            let ea = camera_of env a and eb = camera_of env b in
            P.included ea eb || P.equal ea eb
        | _ -> true);
    ghost_camera_prop "eq-condition" (fun env a b ->
        match GV.eq_condition a b with
        | Some c when holds env c -> P.equal (camera_of env a) (camera_of env b)
        | _ -> true);
    ghost_camera_prop "persistent" (fun env a _ ->
        let ea = camera_of env a in
        (not (GV.persistent a))
        || match P.pcore ea with Some c -> P.equal c ea | None -> false);
    ghost_camera_prop "update" (fun env a b ->
        match GV.update a b with
        | Some c when holds env c ->
            Camera.Updates.brute_force
              (module Frames)
              (camera_of env a) (camera_of env b)
        | _ -> true);
  ]

(* Syntactic stability implies semantic stability. *)
let stability_semantic =
  [
    Alcotest.test_case "stable-sound" `Quick (fun () ->
        (* For syntactically stable P: P(σ,r) and σ' agreeing with r's
           footprint implies P(σ',r). *)
        let cases = [ p1; A.Sep (p1, p3); pure_ab; p2 ] in
        List.iter
          (fun p ->
            if A.stable p then
              let ok =
                List.for_all
                  (fun sigma ->
                    List.for_all
                      (fun r ->
                        (not (S.compat sigma r))
                        || (not
                              (S.eval model Smap.empty
                                 (Smap.of_list [ ("a", 1); ("b", 1) ])
                                 ~step:2 sigma r p))
                        || List.for_all
                             (fun sigma' ->
                               (not (S.compat sigma' r))
                               || S.eval model Smap.empty
                                    (Smap.of_list [ ("a", 1); ("b", 1) ])
                                    ~step:2 sigma' r p)
                             model.S.globals)
                      model.S.resources)
                  model.S.globals
              in
              Alcotest.(check bool) (A.to_string p) true ok)
          cases);
    Alcotest.test_case "deref-pure-unstable" `Quick (fun () ->
        Alcotest.(check bool) "⌜!l = a⌝ unstable" false (A.stable p3);
        Alcotest.(check bool) "covered read stable" true
          (A.stable (A.Sep (p1, p3))));
  ]

let () =
  Alcotest.run "baselogic"
    [
      ("structural", structural_rules);
      ("pure", pure_rules);
      ("heap", heap_rules);
      ("ghost", ghost_rules);
      ("modalities", modality_rules);
      ("wp", wp_rules);
      ("negative", negative_cases);
      ("side-conditions", rule_error_cases);
      ("entail-auto", entail_auto_cases);
      ("ghost-val", ghost_val_consistency @ ghost_val_camera);
      ("stability", stability_semantic);
    ]
