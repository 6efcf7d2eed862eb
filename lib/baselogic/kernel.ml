(** Implementation of the proof kernel. See the interface for the
    reading guide. Every rule here is model-checked against
    {!Semantics.eval} by the test suite. *)

open Stdx
module A = Assertion
module T = Smt.Term
module HL = Heaplang.Ast

type theorem = { penv : A.pred_env; lhs : A.t; rhs : A.t }

let penv t = t.penv
let lhs t = t.lhs
let rhs t = t.rhs
let pp ppf t = Fmt.pf ppf "@[%a@ ⊢ %a@]" A.pp t.lhs A.pp t.rhs

exception Rule_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Rule_error s)) fmt

(* Atomic so the kernel-rule account stays coherent even if theorems
   are built from several domains (the parallel engine itself only runs
   the automated verifier, but nothing should silently under-count). *)
let rules = Atomic.make 0
let rule_count () = Atomic.get rules
let reset_rule_count () = Atomic.set rules 0

let mk ?(penv = Smap.empty) lhs rhs =
  Atomic.incr rules;
  { penv; lhs; rhs }

(** Predicate environments must agree when theorems are composed; an
    empty environment is compatible with anything. *)
let join_penv p1 p2 =
  if Smap.is_empty p1 then p2
  else if Smap.is_empty p2 then p1
  else if Smap.equal (fun a b -> a == b) p1 p2 then p1
  else fail "incompatible predicate environments"

(* ------------------------------------------------------------------ *)
(* Structural *)

let refl ?penv p = mk ?penv p p

let trans t1 t2 =
  if A.equal t1.rhs t2.lhs then
    mk ~penv:(join_penv t1.penv t2.penv) t1.lhs t2.rhs
  else fail "trans: %a vs %a" A.pp t1.rhs A.pp t2.lhs

(* ------------------------------------------------------------------ *)
(* Separating conjunction *)

let sep_comm ?penv p q = mk ?penv (A.Sep (p, q)) (A.Sep (q, p))
let sep_assoc_r ?penv p q r =
  mk ?penv (A.Sep (A.Sep (p, q), r)) (A.Sep (p, A.Sep (q, r)))
let sep_assoc_l ?penv p q r =
  mk ?penv (A.Sep (p, A.Sep (q, r))) (A.Sep (A.Sep (p, q), r))

let sep_mono t1 t2 =
  mk
    ~penv:(join_penv t1.penv t2.penv)
    (A.Sep (t1.lhs, t2.lhs))
    (A.Sep (t1.rhs, t2.rhs))

let sep_weaken_l ?penv p q = mk ?penv (A.Sep (p, q)) q
let emp_sep_intro ?penv p = mk ?penv p (A.Sep (A.Emp, p))
let emp_sep_elim ?penv p = mk ?penv (A.Sep (A.Emp, p)) p

let wand_intro t =
  match t.lhs with
  | A.Sep (p, q) ->
      (* Wands quantify over the globals compatible with the combined
         resource, so the retained context [p] must be stable — the
         destabilized logic's tax on magic wands. Unstable facts must
         be resolved against the footprint first (see
         [Assertion.stable]). *)
      if not (A.stable p) then
        fail "wand_intro: retained context is not stable: %a" A.pp p
      else mk ~penv:t.penv p (A.Wand (q, t.rhs))
  | _ -> fail "wand_intro: LHS not a separating conjunction"

let wand_elim ?penv q r = mk ?penv (A.Sep (A.Wand (q, r), q)) r

(* ------------------------------------------------------------------ *)
(* Conjunction / disjunction *)

let and_intro t1 t2 =
  if A.equal t1.lhs t2.lhs then
    mk ~penv:(join_penv t1.penv t2.penv) t1.lhs (A.And (t1.rhs, t2.rhs))
  else fail "and_intro: different hypotheses"

let and_elim_l ?penv p q = mk ?penv (A.And (p, q)) p
let and_elim_r ?penv p q = mk ?penv (A.And (p, q)) q
let or_intro_l ?penv p q = mk ?penv p (A.Or (p, q))
let or_intro_r ?penv p q = mk ?penv q (A.Or (p, q))

(** Classical introduction of [⌜φ⌝ ∨ R]: from
    [seps (hyps @ [⌜¬φ⌝]) ⊢ R] conclude [seps hyps ⊢ ⌜φ⌝ ∨ R] (our
    pure assertions are two-valued). *)
let or_classical hyps phi r t =
  if not (A.equal t.lhs (A.seps (hyps @ [ A.Pure (T.not_ phi) ]))) then
    fail "or_classical: hypothesis mismatch";
  if not (A.equal t.rhs r) then fail "or_classical: conclusion mismatch";
  mk ~penv:t.penv (A.seps hyps) (A.Or (A.Pure phi, r))

let or_elim t1 t2 =
  if A.equal t1.rhs t2.rhs then
    mk ~penv:(join_penv t1.penv t2.penv) (A.Or (t1.lhs, t2.lhs)) t1.rhs
  else fail "or_elim: different conclusions"

(* ------------------------------------------------------------------ *)
(* Pure assertions: the SMT gateway *)

(** Heap reads are opaque to the solver: [!l] is an uninterpreted
    function, so solver-validity means validity for every heap. The
    syntactic fast paths matter: the proof mode's structural glue
    entailments match chunks verbatim, and must not pay a solver call
    each. *)
let smt_entails hyps goal =
  T.equal goal T.tru
  || List.exists (T.equal goal) hyps
  || (match T.view goal with
     | T.Eq (a, b) -> T.equal a b
     | _ -> false)
  || Smt.Solver.entails_bool ~hyps goal

let pure_intro ?penv p phi =
  if smt_entails [] phi then mk ?penv p (A.Pure phi)
  else fail "pure_intro: %a not valid" T.pp phi

let pure_entail ?penv ~hyps psi =
  if smt_entails hyps psi then
    mk ?penv (A.seps (List.map A.pure hyps)) (A.Pure psi)
  else fail "pure_entail: not entailed"

let pure_false_elim ?penv q = mk ?penv (A.Pure T.fls) q

(* ------------------------------------------------------------------ *)
(* Quantifiers *)

let exists_intro ?penv x p t = mk ?penv (A.subst1 x t p) (A.Exists (x, p))

let exists_elim x t =
  if List.mem x (A.free_vars t.rhs) then
    fail "exists_elim: %s free in conclusion" x
  else mk ~penv:t.penv (A.Exists (x, t.lhs)) t.rhs

(** Existential elimination inside a separating context: from
    [seps (before @ [P\[y/x\]] @ after) ⊢ Q] with [y] fresh, conclude
    [seps (before @ [∃x.P] @ after) ⊢ Q]. *)
let exists_elim_ctx ~before x y p ~after t =
  let fresh_in a = not (List.mem y (A.free_vars a)) in
  if not (List.for_all fresh_in (before @ after) && fresh_in (A.Exists (x, p))
          && fresh_in t.rhs) then
    fail "exists_elim_ctx: %s not fresh" y;
  let opened = A.seps (before @ [ A.subst1 x (T.var y) p ] @ after) in
  if not (A.equal t.lhs opened) then
    fail "exists_elim_ctx: hypothesis mismatch";
  mk ~penv:t.penv (A.seps (before @ [ A.Exists (x, p) ] @ after)) t.rhs

let forall_elim ?penv x p t = mk ?penv (A.Forall (x, p)) (A.subst1 x t p)

let forall_intro x t =
  if List.mem x (A.free_vars t.lhs) then
    fail "forall_intro: %s free in hypothesis" x
  else mk ~penv:t.penv t.lhs (A.Forall (x, t.rhs))

(* ------------------------------------------------------------------ *)
(* Heap assertions *)

let points_to_agree ?penv q q' l v w =
  mk ?penv
    (A.Sep (A.points_to ~frac:q l v, A.points_to ~frac:q' l w))
    (A.Pure (T.eq v w))

let points_to_split ?penv l q q' v =
  mk ?penv
    (A.points_to ~frac:(Q.add q q') l v)
    (A.Sep (A.points_to ~frac:q l v, A.points_to ~frac:q' l v))

let points_to_join ?penv l q q' v =
  let s = Q.add q q' in
  if Q.leq s Q.one then
    mk ?penv
      (A.Sep (A.points_to ~frac:q l v, A.points_to ~frac:q' l v))
      (A.points_to ~frac:s l v)
  else fail "points_to_join: fraction above 1"

(** [φ(!l)] resolves to [φ(v)] under [l ↦{q} v]: substituting the read
    both ways. The compatibility baked into entailment (local
    fragments agree with the global heap) makes this sound. *)
let resolve_at l v phi =
  Hterm.resolve (fun l' -> if T.equal l l' then Some v else None) phi

let deref_resolve ?penv q l v phi =
  mk ?penv
    (A.Sep (A.points_to ~frac:q l v, A.Pure phi))
    (A.Sep (A.points_to ~frac:q l v, A.Pure (resolve_at l v phi)))

let deref_intro ?penv q l v phi_with_reads =
  (* The caller supplies the *unresolved* formula; the resolved one is
     the hypothesis. *)
  mk ?penv
    (A.Sep (A.points_to ~frac:q l v, A.Pure (resolve_at l v phi_with_reads)))
    (A.Sep (A.points_to ~frac:q l v, A.Pure phi_with_reads))

(* ------------------------------------------------------------------ *)
(* Ghost state *)

(* [own g (a · b)] splits only when the composition's fact holds and
   both parts are valid: [Agree] composes only equal values, and a
   [Nat_add] fragment splits into no negative part. *)
let ghost_op_split ?penv g a b =
  match Ghost_val.compose a b with
  | Some (ab, fact) ->
      mk ?penv
        (A.seps
           [
             A.own g ab;
             A.Pure fact;
             A.Pure (Ghost_val.valid_fact a);
             A.Pure (Ghost_val.valid_fact b);
           ])
        (A.Sep (A.own g a, A.own g b))
  | None -> fail "ghost_op_split: composition undefined"

let ghost_op_join ?penv g a b =
  match Ghost_val.compose a b with
  | Some (ab, fact) ->
      mk ?penv
        (A.Sep (A.own g a, A.own g b))
        (A.Sep (A.own g ab, A.Pure fact))
  | None -> fail "ghost_op_join: composition undefined"

let ghost_valid ?penv g a =
  mk ?penv (A.own g a) (A.Sep (A.own g a, A.Pure (Ghost_val.valid_fact a)))

let ghost_update ?penv ~hyps g a b =
  match Ghost_val.update a b with
  | Some cond when smt_entails hyps cond ->
      mk ?penv
        (A.seps (List.map A.pure hyps @ [ A.own g a ]))
        (A.Upd (A.own g b))
  | Some _ -> fail "ghost_update: side condition not entailed"
  | None -> fail "ghost_update: unrecognized update pattern"

let ghost_alloc ?penv ~hyps g a =
  if smt_entails hyps (Ghost_val.valid_fact a) then
    mk ?penv (A.seps (List.map A.pure hyps)) (A.Upd (A.own g a))
  else fail "ghost_alloc: allocated element not valid"

(* ------------------------------------------------------------------ *)
(* Persistence *)

let persistently_elim ?penv p = mk ?penv (A.Persistently p) p

let persistently_intro t =
  if A.persistent t.lhs then mk ~penv:t.penv t.lhs (A.Persistently t.rhs)
  else fail "persistently_intro: hypothesis not persistent"

let persistent_dup ?penv p =
  if A.persistent p then mk ?penv p (A.Sep (p, p))
  else fail "persistent_dup: not persistent"

(* ------------------------------------------------------------------ *)
(* Later *)

let later_intro ?penv p = mk ?penv p (A.Later p)
let later_mono t = mk ~penv:t.penv (A.Later t.lhs) (A.Later t.rhs)

(* ------------------------------------------------------------------ *)
(* Update modality *)

let upd_intro ?penv p = mk ?penv p (A.Upd p)
let upd_mono t = mk ~penv:t.penv (A.Upd t.lhs) (A.Upd t.rhs)
let upd_trans ?penv p = mk ?penv (A.Upd (A.Upd p)) (A.Upd p)
let upd_frame ?penv p q = mk ?penv (A.Sep (p, A.Upd q)) (A.Upd (A.Sep (p, q)))

(* ------------------------------------------------------------------ *)
(* Stabilization *)

let stabilize_elim ?penv p = mk ?penv (A.Stabilize p) p

let stabilize_intro ?penv p =
  if A.stable p then mk ?penv p (A.Stabilize p)
  else fail "stabilize_intro: %a is not syntactically stable" A.pp p

let stabilize_mono t =
  mk ~penv:t.penv (A.Stabilize t.lhs) (A.Stabilize t.rhs)

let stabilize_sep ?penv p q =
  mk ?penv
    (A.Sep (A.Stabilize p, A.Stabilize q))
    (A.Stabilize (A.Sep (p, q)))

(* ------------------------------------------------------------------ *)
(* Predicates *)

let pred_body ~(penv : A.pred_env) name args =
  match Smap.find_opt name penv with
  | None -> fail "unknown predicate %s" name
  | Some def ->
      if List.length args <> List.length def.A.params then
        fail "predicate %s: arity mismatch" name
      else
        A.subst
          (Smap.of_list (List.map2 (fun x t -> (x, t)) def.A.params args))
          def.A.body

let pred_unfold ~penv name args =
  let body = pred_body ~penv name args in
  mk ~penv (A.Pred (name, args)) (A.Later body)

let pred_fold ~penv name args =
  let body = pred_body ~penv name args in
  mk ~penv (A.Later body) (A.Pred (name, args))

(* ------------------------------------------------------------------ *)
(* Affinity *)

let emp_intro ?penv p = mk ?penv p A.Emp

(* ------------------------------------------------------------------ *)
(* Automated entailment (the frame-matching macro rule)

   [entail_auto] proves [H1 ∗ … ∗ Hn ⊢ G] by consuming hypothesis
   chunks to match each conjunct of [G]: syntactically, up to
   SMT-provable equality of the terms involved, splitting fractional
   points-to chunks, weakening ghost elements along camera inclusion,
   and resolving heap reads in pure goals against owned points-to
   chunks (the destabilized logic's resolution principle). Pure
   hypotheses are persistent and never consumed. Soundness of the
   whole macro is model-checked in the test suite; each internal match
   counts as one rule application for proof-size accounting. *)

type ctx = {
  mutable cpures : T.t list;
  mutable chunks : A.t list;
  cwitnesses : (string * T.t) list;
}

exception No_match of string

let nope fmt = Fmt.kstr (fun s -> raise (No_match s)) fmt

(** Collect the pure knowledge of a hypothesis list: pure conjuncts
    plus validity facts of ghost chunks. *)
let pure_knowledge (hyps : A.t list) : T.t list =
  List.concat_map
    (fun h ->
      match h with
      | A.Pure t -> [ t ]
      | A.Ghost (_, gv) -> [ Ghost_val.valid_fact gv ]
      | A.Points_to _ -> []
      | _ -> [])
    (List.concat_map A.conjuncts hyps)

(** Resolve the heap reads of [phi] against the context's points-to
    chunks (without consuming them — reading is persistent-ish). *)
let resolve_reads ctx phi =
  Hterm.resolve
    (fun l ->
      List.find_map
        (function
          | A.Points_to { loc; value; _ }
            when smt_entails ctx.cpures (T.eq l loc) ->
              Some value
          | _ -> None)
        ctx.chunks)
    phi

let take_chunk ctx pred =
  match Listx.find_remove pred ctx.chunks with
  | Some (c, rest) ->
      ctx.chunks <- rest;
      Some c
  | None -> None

let rec prove_goal ctx (goal : A.t) : unit =
  Atomic.incr rules;
  (* Strategy 0: an exactly matching chunk. *)
  match take_chunk ctx (A.equal goal) with
  | Some _ -> ()
  | None -> (
      match goal with
      | A.Emp -> ()
      | A.Pure phi ->
          let phi = resolve_reads ctx phi in
          if not (smt_entails ctx.cpures phi) then
            nope "pure goal %a not entailed" T.pp phi
      | A.Sep (p, q) ->
          prove_goal ctx p;
          prove_goal ctx q
      | A.And (p, q) ->
          (* Both conjuncts must hold of the same resource: prove each
             against a private copy, then conservatively consume
             everything either branch consumed (we drop the rest). *)
          let saved = ctx.chunks in
          prove_goal ctx p;
          let after_p = ctx.chunks in
          ctx.chunks <- saved;
          prove_goal ctx q;
          let after_q = ctx.chunks in
          ctx.chunks <-
            List.filter (fun c -> List.memq c after_q) after_p
      | A.Or (p, q) -> (
          (* Classical strengthening: to prove ⌜φ⌝ ∨ ψ it suffices to
             prove ψ under ¬φ (and symmetrically) — this is how loop
             postconditions receive the negated guard. *)
          let with_pure extra goal =
            let ctx' = { ctx with cpures = extra :: ctx.cpures } in
            prove_goal ctx' goal;
            ctx.chunks <- ctx'.chunks
          in
          let saved = ctx.chunks in
          match
            match (p, q) with
            | A.Pure phi, _ when not (smt_entails ctx.cpures phi) ->
                with_pure (T.not_ phi) q
            | _, A.Pure psi when not (smt_entails ctx.cpures psi) ->
                with_pure (T.not_ psi) p
            | _ -> prove_goal ctx p
          with
          | () -> ()
          | exception No_match _ ->
              ctx.chunks <- saved;
              prove_goal ctx q)
      | A.Points_to { loc; frac; value } -> (
          (* Coalesce fractional chunks at this location first: two
             chunks with provably equal locations agree on the value
             (their composition is valid), so they merge. *)
          let mine, others =
            List.partition
              (function
                | A.Points_to { loc = l'; _ } ->
                    T.equal loc l' || smt_entails ctx.cpures (T.eq loc l')
                | _ -> false)
              ctx.chunks
          in
          (match mine with
          | A.Points_to first :: (_ :: _ as rest) ->
              let q =
                List.fold_left
                  (fun q c ->
                    match c with
                    | A.Points_to { frac = q'; _ } -> Q.add q q'
                    | _ -> q)
                  first.frac rest
              in
              ctx.chunks <-
                A.points_to ~frac:q first.loc first.value :: others
          | _ -> ());
          let found =
            take_chunk ctx (function
              | A.Points_to { loc = l'; frac = q'; value = _ } ->
                  Q.geq q' frac && smt_entails ctx.cpures (T.eq loc l')
              | _ -> false)
          in
          match found with
          | Some (A.Points_to { loc = l'; frac = q'; value = v' }) ->
              if not (smt_entails ctx.cpures (T.eq value v')) then
                nope "points-to %a: value mismatch (%a vs %a)" T.pp loc T.pp
                  value T.pp v';
              if Q.gt q' frac then
                ctx.chunks <-
                  A.points_to ~frac:(Q.sub q' frac) l' v' :: ctx.chunks
          | _ -> nope "no points-to chunk for %a" T.pp loc)
      | A.Ghost (g, gv) -> (
          let found =
            take_chunk ctx (function
              | A.Ghost (g', gv') ->
                  String.equal g g'
                  && (match Ghost_val.sub_condition ~goal:gv ~chunk:gv' with
                     | Some cond -> smt_entails ctx.cpures cond
                     | None -> false)
              | _ -> false)
          in
          match found with
          | Some _ -> ()
          | None -> nope "no ghost chunk for %s" g)
      | A.Pred (p, args) -> (
          let found =
            take_chunk ctx (function
              | A.Pred (p', args') ->
                  String.equal p p'
                  && List.length args = List.length args'
                  && List.for_all2
                       (fun a b -> smt_entails ctx.cpures (T.eq a b))
                       args args'
              | _ -> false)
          in
          match found with
          | Some _ -> ()
          | None -> nope "no predicate chunk %s" p)
      | A.Exists (x, body) -> (
          let try_witness t =
            let saved = ctx.chunks in
            match prove_goal ctx (A.subst1 x t body) with
            | () -> true
            | exception No_match _ ->
                ctx.chunks <- saved;
                false
          in
          let hinted =
            match List.assoc_opt x ctx.cwitnesses with
            | Some t -> try_witness t
            | None -> false
          in
          if not hinted then
            let candidates = infer_witnesses ctx x body in
            if not (List.exists try_witness candidates) then
              nope "no witness for ∃%s" x)
      | A.Later p -> prove_goal ctx p  (* P ⊢ ▷P *)
      | A.Upd p -> prove_goal ctx p  (* P ⊢ |==>P *)
      | A.Stabilize p ->
          if A.stable p then begin
            (* Facts that read the heap beyond the goal's own footprint
               do not survive stabilization: prove [p] from the
               heap-independent fragment of the pure context. The
               resolved variants added at context creation keep the
               information that was covered by owned chunks. *)
            let stable_pures =
              List.filter (fun t -> not (Hterm.heap_dependent t)) ctx.cpures
            in
            let ctx' = { ctx with cpures = stable_pures } in
            prove_goal ctx' p;
            ctx.chunks <- ctx'.chunks
          end
          else nope "goal under ⌊·⌋ is not syntactically stable"
      | A.Persistently p ->
          if A.persistent p then prove_goal ctx p
          else nope "□ goal not persistent"
      | A.Wand (A.Pure phi, rhs) ->
          (* A wand from a pure assertion adds no resources, only the
             fact. *)
          let ctx' = { ctx with cpures = phi :: ctx.cpures } in
          prove_goal ctx' rhs;
          ctx.chunks <- ctx'.chunks
      | A.Forall _ | A.Wand _ | A.Wp _ ->
          nope "no matching chunk for %a" A.pp goal)

(** Witness inference for ∃x: unify the body's chunk-shaped conjuncts
    against available chunks and collect the terms x would have to
    equal. *)
and infer_witnesses ctx x body : T.t list =
  let rec peel = function A.Exists (_, p) -> peel p | p -> p in
  let body = peel body in
  let cands = ref [] in
  let is_x t =
    match T.view t with T.Var (y, _) -> String.equal y x | _ -> false
  in
  let consider pat chunk =
    match (pat, chunk) with
    | ( A.Points_to { loc; value; _ },
        A.Points_to { loc = l'; value = v'; _ } ) ->
        if is_x value then begin
          if smt_entails ctx.cpures (T.eq loc l') then cands := v' :: !cands
        end
        else if is_x loc then
          if smt_entails ctx.cpures (T.eq value v') then cands := l' :: !cands
    | ( A.Ghost (g, Ghost_val.Auth_nat { auth = Some a; _ }),
        A.Ghost (g', Ghost_val.Auth_nat { auth = Some n'; _ }) )
      when is_x a && String.equal g g' ->
        cands := n' :: !cands
    | A.Ghost (g, Ghost_val.Agree a), A.Ghost (g', Ghost_val.Agree v')
      when is_x a && String.equal g g' ->
        cands := v' :: !cands
    | A.Pred (p, args), A.Pred (p', args')
      when String.equal p p' && List.length args = List.length args' ->
        List.iter2
          (fun a a' -> if is_x a then cands := a' :: !cands)
          args args'
    | _ -> ()
  in
  List.iter
    (fun pat -> List.iter (consider pat) ctx.chunks)
    (A.conjuncts body);
  (* Heap reads make good witnesses too: ∃n. ⌜n = !l⌝ … *)
  List.iter
    (fun pat ->
      match pat with
      | A.Pure t -> (
          match T.view t with
          | T.Eq (lhs, rhs) when is_x lhs ->
              cands := resolve_reads ctx rhs :: !cands
          | T.Eq (lhs, rhs) when is_x rhs ->
              cands := resolve_reads ctx lhs :: !cands
          | _ -> ())
      | _ -> ())
    (A.conjuncts body);
  Listx.take 8 (List.rev !cands)

let entail_auto ?penv ?(witnesses = []) (hyps : A.t list) (goal : A.t) :
    theorem =
  let chunks =
    List.concat_map A.conjuncts hyps
    |> List.filter (function A.Pure _ -> false | _ -> true)
  in
  let ctx =
    { cpures = pure_knowledge hyps; chunks; cwitnesses = witnesses }
  in
  (* Heap-dependent pure facts also yield their resolution against the
     owned chunks (sound: local fragments agree with the global heap),
     which is the stable form that survives mutation. *)
  let resolved =
    List.filter_map
      (fun t ->
        if Hterm.heap_dependent t then
          let t' = resolve_reads ctx t in
          if Hterm.heap_dependent t' then None else Some t'
        else None)
      ctx.cpures
  in
  ctx.cpures <- ctx.cpures @ resolved;
  (* Pre-resolve the goal's pure parts against the *initial* chunks, so
     a pure conjunct may read a location whose chunk another conjunct
     of the same goal consumes (same argument as [deref_resolve]). *)
  let rec resolve_goal (a : A.t) : A.t =
    match a with
    | A.Pure phi -> A.Pure (resolve_reads ctx phi)
    | A.Emp | A.Points_to _ | A.Ghost _ | A.Pred _ -> a
    | A.Sep (p, q) -> A.Sep (resolve_goal p, resolve_goal q)
    | A.And (p, q) -> A.And (resolve_goal p, resolve_goal q)
    | A.Or (p, q) -> A.Or (resolve_goal p, resolve_goal q)
    | A.Exists (x, p) -> A.Exists (x, resolve_goal p)
    | A.Forall (x, p) -> A.Forall (x, resolve_goal p)
    | A.Stabilize p -> A.Stabilize (resolve_goal p)
    | A.Later p -> A.Later (resolve_goal p)
    | A.Upd p -> A.Upd (resolve_goal p)
    | A.Persistently p -> A.Persistently (resolve_goal p)
    | A.Wand _ | A.Wp _ -> a
  in
  (* Prove the resolved form; the emitted theorem keeps the original
     goal (sound: in-context, each read equals the owned chunk's
     value — the deref_intro principle). *)
  let resolved_goal = resolve_goal goal in
  (match prove_goal ctx resolved_goal with
  | () -> ()
  | exception No_match m ->
      fail "entail_auto:@ %s@ hyps: %a@ goal: %a" m
        (Fmt.list ~sep:Fmt.comma A.pp) hyps A.pp goal);
  mk ?penv (A.seps hyps) goal

(** Stabilize a hypothesis list: heap-dependent pure hypotheses are
    replaced by their resolution against the list's own points-to
    chunks (sound, since local fragments agree with the global heap)
    or dropped when unresolvable; other unstable hypotheses are
    dropped. The result is pointwise stable, as [wand_intro]
    requires. This is *not* a proof rule — the bridging entailment
    [seps hyps ⊢ seps (scrub hyps)] is proved by [entail_auto]. *)
let scrub (hyps : A.t list) : A.t list =
  let all = List.concat_map A.conjuncts hyps in
  let pures = pure_knowledge hyps in
  let resolve phi =
    Hterm.resolve
      (fun l ->
        List.find_map
          (function
            | A.Points_to { loc; value; _ }
              when T.equal l loc || smt_entails pures (T.eq l loc) ->
                Some value
            | _ -> None)
          all)
      phi
  in
  List.filter_map
    (fun h ->
      match h with
      | A.Pure phi when Hterm.heap_dependent phi ->
          let phi' = resolve phi in
          if Hterm.heap_dependent phi' then None else Some (A.Pure phi')
      | h -> if A.stable h then Some h else None)
    hyps

(** Focus a points-to chunk for location [loc]: returns
    [seps hyps ⊢ loc ↦{q} v ∗ seps rest] together with [q], [v] and the
    remaining hypotheses. *)
let focus_points_to ?penv (hyps : A.t list) (loc : T.t) :
    theorem * Q.t * T.t * A.t list =
  let pures = pure_knowledge hyps in
  let all = List.concat_map A.conjuncts hyps in
  match
    Listx.find_remove
      (function
        | A.Points_to { loc = l'; _ } -> smt_entails pures (T.eq loc l')
        | _ -> false)
      all
  with
  | Some (A.Points_to { frac; value; _ }, rest) ->
      ( mk ?penv (A.seps hyps)
          (A.Sep (A.points_to ~frac loc value, A.seps rest)),
        frac,
        value,
        rest )
  | _ -> fail "focus_points_to: no chunk for %a" T.pp loc

(** Focus the ghost chunk named [g]. *)
let focus_ghost ?penv (hyps : A.t list) (g : string) :
    theorem * Ghost_val.t * A.t list =
  let all = List.concat_map A.conjuncts hyps in
  match
    Listx.find_remove
      (function A.Ghost (g', _) -> String.equal g g' | _ -> false)
      all
  with
  | Some ((A.Ghost (_, gv) as chunk), rest) ->
      (mk ?penv (A.seps hyps) (A.Sep (chunk, A.seps rest)), gv, rest)
  | _ -> fail "focus_ghost: no ghost chunk %s" g

(** Focus the predicate chunk [p(args)] (args matched by SMT). *)
let focus_pred ?penv (hyps : A.t list) (p : string) (args : T.t list) :
    theorem * T.t list * A.t list =
  let pures = pure_knowledge hyps in
  let all = List.concat_map A.conjuncts hyps in
  match
    Listx.find_remove
      (function
        | A.Pred (p', args') ->
            String.equal p p'
            && List.length args = List.length args'
            && List.for_all2
                 (fun a b -> smt_entails pures (T.eq a b))
                 args args'
        | _ -> false)
      all
  with
  | Some (A.Pred (_, args'), rest) ->
      ( mk ?penv (A.seps hyps)
          (A.Sep (A.Pred (p, args'), A.seps rest)),
        args',
        rest )
  | _ -> fail "focus_pred: no chunk %s" p

(* ------------------------------------------------------------------ *)
(* Weakest preconditions *)

(** Term encoding of a first-order program value. *)
let value_term : HL.value -> T.t option = function
  | HL.Unit -> Some (T.int 0)
  | HL.Bool b -> Some (T.int (if b then 1 else 0))
  | HL.Int n -> Some (T.int n)
  | HL.Loc l -> Some (T.int l)
  | HL.Sym x -> Some (T.var x)
  | HL.Pair _ | HL.InjL _ | HL.InjR _ | HL.RecV _ -> None

let wp_value ?penv v x q =
  match value_term v with
  | Some t -> mk ?penv (A.subst1 x t q) (A.Wp (HL.Val v, x, q))
  | None -> fail "wp_value: value has no term encoding"

let wp_mono e x y q1 q2 t =
  let fresh_ok a = not (List.mem y (A.free_vars (A.Exists (x, a)))) in
  if not (fresh_ok q1 && fresh_ok q2) then fail "wp_mono: %s not fresh" y
  else if
    A.equal t.lhs (A.subst1 x (T.var y) q1)
    && A.equal t.rhs (A.subst1 x (T.var y) q2)
  then mk ~penv:t.penv (A.Wp (e, x, q1)) (A.Wp (e, x, q2))
  else fail "wp_mono: theorem does not match postconditions"

let wp_frame ?penv p e x q =
  if List.mem x (A.free_vars p) then fail "wp_frame: %s free in frame" x
  else mk ?penv (A.Sep (p, A.Wp (e, x, q))) (A.Wp (e, x, A.Sep (p, q)))

(** Pure (heap-free, deterministic) head reduction. *)
let pure_head_step (e : HL.expr) : HL.expr option =
  match e with
  | HL.App (HL.Val (HL.RecV (f, x, body) as clo), HL.Val arg) ->
      let body = Heaplang.Subst.subst x arg body in
      Some
        (match f with
        | Some f -> Heaplang.Subst.subst f clo body
        | None -> body)
  | HL.Rec (f, x, body) -> Some (HL.Val (HL.RecV (f, x, body)))
  | HL.Let (x, HL.Val v, body) -> Some (Heaplang.Subst.subst x v body)
  | HL.Seq (HL.Val _, b) -> Some b
  | HL.If (HL.Val (HL.Bool true), a, _) -> Some a
  | HL.If (HL.Val (HL.Bool false), _, b) -> Some b
  | HL.UnOp (op, HL.Val v) ->
      Heaplang.Step.eval_un_op op v
      |> Result.to_option
      |> Option.map (fun v -> HL.Val v)
  | HL.BinOp (op, HL.Val v1, HL.Val v2) ->
      (* An overflowing operator takes no step, like an ill-typed one. *)
      Heaplang.Step.eval_bin_op op v1 v2
      |> Result.to_option
      |> Option.map (fun v -> HL.Val v)
  | HL.PairE (HL.Val a, HL.Val b) -> Some (HL.Val (HL.Pair (a, b)))
  | HL.Fst (HL.Val (HL.Pair (a, _))) -> Some (HL.Val a)
  | HL.Snd (HL.Val (HL.Pair (_, b))) -> Some (HL.Val b)
  | HL.InjLE (HL.Val v) -> Some (HL.Val (HL.InjL v))
  | HL.InjRE (HL.Val v) -> Some (HL.Val (HL.InjR v))
  | HL.Case (HL.Val (HL.InjL v), (x, l), _) ->
      Some (Heaplang.Subst.subst x v l)
  | HL.Case (HL.Val (HL.InjR v), _, (y, r)) ->
      Some (Heaplang.Subst.subst y v r)
  | HL.Assert (HL.Val (HL.Bool true)) -> Some (HL.Val HL.Unit)
  | _ -> None

let wp_pure_step ?penv e e' x q =
  match pure_head_step e with
  | Some e'' when e'' = e' -> mk ?penv (A.Wp (e', x, q)) (A.Wp (e, x, q))
  | Some e'' ->
      fail "wp_pure_step: %a steps to %a, not %a" HL.pp_expr e HL.pp_expr e''
        HL.pp_expr e'
  | None -> fail "wp_pure_step: %a is not a pure redex" HL.pp_expr e

(** Symbolic binary operations, 0/1-encoding booleans. Boolean
    operands are symbolic integers constrained to 0/1 by the callers'
    preconditions. Division is omitted (guarded by wp_pure_step on
    concrete values only). *)
let binop_term (op : HL.bin_op) (a : T.t) (b : T.t) : T.t option =
  let b01 t = T.ite t (T.int 1) (T.int 0) in
  match op with
  | HL.Add -> Some (T.add a b)
  | HL.Sub -> Some (T.sub a b)
  | HL.Mul -> Some (T.mul a b)
  | HL.Div | HL.Rem -> None
  | HL.Eq -> Some (b01 (T.eq a b))
  | HL.Ne -> Some (b01 (T.neq a b))
  | HL.Lt -> Some (b01 (T.lt a b))
  | HL.Le -> Some (b01 (T.le a b))
  | HL.Gt -> Some (b01 (T.gt a b))
  | HL.Ge -> Some (b01 (T.ge a b))
  | HL.AndOp -> Some (T.ite (T.eq a (T.int 0)) (T.int 0) b)
  | HL.OrOp -> Some (T.ite (T.eq a (T.int 0)) b (T.int 1))

(** Division and remainder of two literals with a non-zero divisor,
    through {!Stdx.Checked} ([min_int / -1] raises
    [Stdx.Checked.Overflow]); [None] otherwise. Symbolic execution
    only: no kernel rule uses it. *)
let divrem_term (op : HL.bin_op) (a : T.t) (b : T.t) : T.t option =
  match (op, T.view a, T.view b) with
  | HL.Div, T.Int_lit m, T.Int_lit n when n <> 0 ->
      Some (T.int (Stdx.Checked.div m n))
  | HL.Rem, T.Int_lit m, T.Int_lit n when n <> 0 ->
      Some (T.int (Stdx.Checked.rem m n))
  | _ -> None

(** Recover the program expression whose operands encode as [a], [b]:
    only variable and literal encodings are permitted, so the encoding
    is unambiguous. *)
let term_value (t : T.t) : HL.value option =
  match T.view t with
  | T.Var (x, _) -> Some (HL.Sym x)
  | T.Int_lit n -> Some (HL.Int n)
  | _ -> None

let wp_binop ?penv op a b x q =
  match (binop_term op a b, term_value a, term_value b) with
  | Some t, Some va, Some vb ->
      (* Boolean program operators work on Bool values; symbolic
         operands stand for any first-order value, and the 0/1 encoding
         is consistent across the kernel. *)
      mk ?penv (A.subst1 x t q)
        (A.Wp (HL.BinOp (op, HL.Val va, HL.Val vb), x, q))
  | None, _, _ -> fail "wp_binop: operator has no symbolic encoding"
  | _ -> fail "wp_binop: operands must be variables or literals"

let wp_if_sym ?penv b e1 e2 x q =
  match term_value b with
  | Some vb ->
      let zero = T.eq b (T.int 0) in
      mk ?penv
        (A.And
           ( A.Or (A.Pure zero, A.Wp (e1, x, q)),
             A.Or (A.Pure (T.not_ zero), A.Wp (e2, x, q)) ))
        (A.Wp (HL.If (HL.Val vb, e1, e2), x, q))
  | None -> fail "wp_if_sym: condition must be a variable or literal"

let wp_load ?penv frac lname v x q =
  let l = T.var lname in
  let pt = A.points_to ~frac l v in
  mk ?penv
    (A.Sep (pt, A.Wand (pt, A.subst1 x v q)))
    (A.Wp (HL.Load (HL.Val (HL.Sym lname)), x, q))

(* Heap mutation invalidates heap-dependent facts established before
   it: the continuation of every mutating rule sits under ⌊·⌋, so only
   assertions stable w.r.t. the mutated global survive. This is the
   destabilized logic's frame discipline (the whole reason the
   stabilization modality exists). *)

let wp_store ?penv lname v w wt x q =
  (match value_term w with
  | Some t when T.equal t wt -> ()
  | _ -> fail "wp_store: stored value does not encode to the given term");
  let l = T.var lname in
  mk ?penv
    (A.Sep
       ( A.points_to l v,
         A.Wand (A.points_to l wt, A.subst1 x (T.int 0) q) ))
    (A.Wp (HL.Store (HL.Val (HL.Sym lname), HL.Val w), x, q))

let wp_alloc ?penv v vt lname x q =
  (match value_term v with
  | Some t when T.equal t vt -> ()
  | _ -> fail "wp_alloc: value does not encode to the given term");
  if List.mem lname (A.free_vars (A.Exists (x, q))) then
    fail "wp_alloc: %s not fresh in postcondition" lname
  else
    mk ?penv
      (A.Forall
         ( lname,
           A.Wand
             ( A.points_to (T.var lname) vt,
               A.subst1 x (T.var lname) q ) ))
      (A.Wp (HL.Alloc (HL.Val v), x, q))

let wp_free ?penv lname v x q =
  mk ?penv
    (A.Sep (A.points_to (T.var lname) v, A.subst1 x (T.int 0) q))
    (A.Wp (HL.Free (HL.Val (HL.Sym lname)), x, q))

let wp_faa ?penv lname v d x q =
  match term_value d with
  | Some vd ->
      let l = T.var lname in
      mk ?penv
        (A.Sep
           ( A.points_to l v,
             A.Wand (A.points_to l (T.add v d), A.subst1 x v q) ))
        (A.Wp (HL.Faa (HL.Val (HL.Sym lname), HL.Val vd), x, q))
  | None -> fail "wp_faa: delta must be a variable or literal"

let wp_let ?penv xprog e1 e2 y r q =
  if List.mem y (A.free_vars (A.Exists (r, q))) then
    fail "wp_let: %s not fresh" y
  else
    let e2' = Heaplang.Subst.subst xprog (HL.Sym y) e2 in
    mk ?penv
      (A.Wp (e1, y, A.Wp (e2', r, q)))
      (A.Wp (HL.Let (xprog, e1, e2), r, q))

let wp_seq ?penv e1 e2 y r q =
  if List.mem y (A.free_vars (A.Exists (r, q))) then
    fail "wp_seq: %s not fresh" y
  else
    mk ?penv (A.Wp (e1, y, A.Wp (e2, r, q))) (A.Wp (HL.Seq (e1, e2), r, q))

let wp_assert ?penv b x q =
  match term_value b with
  | Some vb ->
      mk ?penv
        (A.And
           ( A.Pure (T.not_ (T.eq b (T.int 0))),
             A.subst1 x (T.int 0) q ))
        (A.Wp (HL.Assert (HL.Val vb), x, q))
  | None -> fail "wp_assert: condition must be a variable or literal"

(* Named variants: the continuation receives a fresh name [z] plus the
   defining equation, so only variables ever cross into program syntax
   (the tactic layer's A-normal discipline). Each is derivable from the
   unnamed rule plus forall/wand/pure reasoning. *)

let named_post z t x q =
  A.Forall (z, A.Wand (A.Pure (T.eq (T.var z) t), A.subst1 x (T.var z) q))

let check_fresh who z x q hyp_terms =
  if
    List.mem z (A.free_vars (A.Exists (x, q)))
    || List.exists (fun t -> List.mem_assoc z (T.vars t)) hyp_terms
  then fail "%s: %s not fresh" who z

let wp_binop_n ?penv op a b z x q =
  match (binop_term op a b, term_value a, term_value b) with
  | Some t, Some va, Some vb ->
      check_fresh "wp_binop_n" z x q [ a; b ];
      mk ?penv (named_post z t x q)
        (A.Wp (HL.BinOp (op, HL.Val va, HL.Val vb), x, q))
  | None, _, _ -> fail "wp_binop_n: operator has no symbolic encoding"
  | _ -> fail "wp_binop_n: operands must be variables or literals"

let wp_load_n ?penv frac lname v z x q =
  check_fresh "wp_load_n" z x q [ T.var lname; v ];
  let pt = A.points_to ~frac (T.var lname) v in
  mk ?penv
    (A.Sep (pt, A.Wand (pt, named_post z v x q)))
    (A.Wp (HL.Load (HL.Val (HL.Sym lname)), x, q))

let wp_faa_n ?penv lname v d z x q =
  match term_value d with
  | Some vd ->
      check_fresh "wp_faa_n" z x q [ T.var lname; v; d ];
      let l = T.var lname in
      mk ?penv
        (A.Sep
           ( A.points_to l v,
             A.Wand (A.points_to l (T.add v d), named_post z v x q) ))
        (A.Wp (HL.Faa (HL.Val (HL.Sym lname), HL.Val vd), x, q))
  | None -> fail "wp_faa_n: delta must be a variable or literal"

let wp_if_wand ?penv b e1 e2 x q =
  match term_value b with
  | Some vb ->
      let zero = T.eq b (T.int 0) in
      mk ?penv
        (A.And
           ( A.Wand (A.Pure (T.not_ zero), A.Wp (e1, x, q)),
             A.Wand (A.Pure zero, A.Wp (e2, x, q)) ))
        (A.Wp (HL.If (HL.Val vb, e1, e2), x, q))
  | None -> fail "wp_if_wand: condition must be a variable or literal"

let wp_while ~penv ~inv ~body_pre ~cond ~body ~cond_thm ~body_thm x q =
  (* cond_thm : inv ⊢ WP cond {b. (⌜b=0⌝ ∨ body_pre) ∧ (⌜b≠0⌝ ∨ Q[0/x])} *)
  let q0 = A.subst1 x (T.int 0) q in
  (match cond_thm.rhs with
  | A.Wp (c, b, post)
    when c == cond || c = cond ->
      let expected =
        A.And
          ( A.Or (A.Pure (T.eq (T.var b) (T.int 0)), body_pre),
            A.Or (A.Pure (T.not_ (T.eq (T.var b) (T.int 0))), q0) )
      in
      if not (A.equal post expected) then
        fail "wp_while: condition postcondition mismatch:@ %a@ vs@ %a" A.pp
          post A.pp expected;
      if not (A.equal cond_thm.lhs inv) then
        fail "wp_while: condition theorem must assume the invariant"
  | _ -> fail "wp_while: cond_thm is not a WP for the condition");
  (match body_thm.rhs with
  | A.Wp (bd, y, post)
    when (bd == body || bd = body)
         && A.equal post inv
         && not (List.mem y (A.free_vars inv)) ->
      if not (A.equal body_thm.lhs body_pre) then
        fail "wp_while: body theorem must assume the body precondition"
  | _ -> fail "wp_while: body_thm is not a WP of the body ending in inv");
  mk
    ~penv:(join_penv penv (join_penv cond_thm.penv body_thm.penv))
    inv
    (A.Wp (HL.While (cond, body), x, q))
