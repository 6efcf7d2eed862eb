(** The forward abstract interpreter over the heaplang executable
    fragment: {!Absdom}'s interval×parity environment threaded through
    {!Domain}'s symbolic heap, seeded from the requires clause and run
    over each procedure body. Branches split on the abstract truth of
    the condition and re-join ({!Domain.join}); loop heads are handled
    the way the executor handles them — the declared invariant is
    inhaled into a havocked state, the body is checked from there, and
    the frame (entry chunks the invariant does not claim) is restored
    on exit. Loops *without* an invariant (only reachable from the
    test harness — the analyzer's well-formedness pass makes them a
    DA008 error first) fall back to a classic join/widen fixpoint.

    Two consumers:

    - the DA018–DA025 diagnostics below, reported through the same
      {!Diag} machinery as the stability and frame lints;
    - {!eval_expr}, the analysis-free entry point the soundness tests
      and the verifier's VC pre-discharge build on.

    Severities: a *definite* contradiction in a spec the verifier will
    trust (DA018 division by zero, DA020 contradictory requires, DA021
    trivially-false ensures) is an error — the procedure either cannot
    run or verifies vacuously. Everything else is advice (warnings):
    dead branches, non-inductive invariants, redundant stabilization,
    unused parameters, missing variants.

    Soundness contract (property-tested in [test/test_analysis.ml]):
    for a closed expression, the abstract state computed here
    over-approximates every concrete {!Heaplang.Interp} run — so a
    {!Domain.holds} = [Yes] fact is true of every reachable concrete
    state, which is exactly what lets the verifier short-circuit
    [Valid] verdicts without consulting the SMT backend. *)

open Stdx
module A = Baselogic.Assertion
module K = Baselogic.Kernel
module T = Smt.Term
module HL = Heaplang.Ast
module V = Verifier.Exec
module AD = Absdom

type ctx = {
  unit_name : string;
  proc : V.proc option;
  diags : Diag.t list ref;
  mutable mute : bool;
      (** suppress reporting — set during fixpoint iteration, where a
          not-yet-stable candidate state would make "definitely
          unreachable" claims that the widened state retracts *)
}

let add ctx d = if not ctx.mute then ctx.diags := d :: !(ctx.diags)

let with_mute ctx f =
  let saved = ctx.mute in
  ctx.mute <- true;
  Fun.protect ~finally:(fun () -> ctx.mute <- saved) f

let ploc ctx site =
  let context =
    match ctx.proc with
    | Some p -> Diag.Proc p.V.pname
    | None -> Diag.Program
  in
  Diag.loc ~unit_name:ctx.unit_name context site

(** The executor's unit value, for expression positions whose result
    is always [()]. *)
let tunit = K.value_term HL.Unit

(* ------------------------------------------------------------------ *)
(* The interpreter *)

(* Join two (state, value) pairs from a branch split: agreeing value
   terms survive; a disagreement becomes a fresh abstract atom equated
   with each branch's value *before* the join, so the joined
   environment carries the join of the two abstract values. *)
let join_values sta va stb vb =
  if Domain.is_bot sta then (stb, vb)
  else if Domain.is_bot stb then (sta, va)
  else
    match (va, vb) with
    | Some a, Some b when T.equal a b -> (Domain.join sta stb, va)
    | Some a, Some b ->
        let x = Domain.fresh_atom () in
        let bind st t = Domain.assume st (Some (T.eq x t)) in
        (Domain.join (bind sta a) (bind stb b), Some x)
    | _ -> (Domain.join sta stb, None)

let rec eval ctx (st : Domain.t) (venv : T.t Smap.t) (e : HL.expr) :
    Domain.t * T.t option =
  if Domain.is_bot st then (st, None)
  else
    match e with
    | HL.Val v -> (st, K.value_term v)
    | HL.Var x -> (st, Smap.find_opt x venv)
    | HL.Let (x, e1, e2) ->
        let st, t1 = eval ctx st venv e1 in
        let v = match t1 with Some t -> t | None -> Domain.fresh_atom () in
        eval ctx st (Smap.add x v venv) e2
    | HL.Seq (a, b) ->
        let st, _ = eval ctx st venv a in
        eval ctx st venv b
    | HL.UnOp (HL.Neg, e) ->
        let st, t = eval ctx st venv e in
        (st, Option.map (fun t -> T.sub (T.int 0) t) t)
    | HL.UnOp (HL.Not, e) ->
        (* the executor's boolean complement on the 0/1 encoding *)
        let st, t = eval ctx st venv e in
        (st, Option.map (fun t -> T.sub (T.int 1) t) t)
    | HL.BinOp ((HL.Div | HL.Rem) as op, a, b) ->
        let st, ta = eval ctx st venv a in
        let st, tb = eval ctx st venv b in
        (match tb with
        | Some tb
          when (not (Domain.is_bot st))
               && Domain.holds st (T.eq tb (T.int 0)) = AD.Yes ->
            add ctx
              (Diag.error ~code:"DA018"
                 ~hint:
                   "guard the division (e.g. [if (d == 0) ... else e / d]) \
                    or strengthen the specification to exclude 0"
                 ~loc:(ploc ctx Diag.Body)
                 "definite division by zero: the divisor %a is 0 in every \
                  state reaching this %s"
                 T.pp tb
                 (match op with HL.Div -> "division" | _ -> "remainder"))
        | _ -> ());
        let r =
          match (ta, tb) with
          | Some ta, Some tb -> (
              (* [None] on a symbolic divisor, which the executor faults
                 on, and on a quotient the executor refuses *)
              try K.divrem_term op ta tb with Stdx.Checked.Overflow -> None)
          | _ -> None
        in
        (st, r)
    | HL.BinOp (op, a, b) ->
        let st, ta = eval ctx st venv a in
        let st, tb = eval ctx st venv b in
        let r =
          match (ta, tb) with
          | Some ta, Some tb -> K.binop_term op ta tb
          | _ -> None
        in
        (st, r)
    | HL.If (c, e1, e2) ->
        let st, cf = cond ctx st venv c in
        let st_then = Domain.assume st cf in
        let st_else = Domain.assume_not st cf in
        (match cf with
        | Some _ when not (Domain.is_bot st) ->
            let dead which =
              add ctx
                (Diag.warning ~code:"DA019"
                   ~hint:
                     "the interval/parity abstraction proves the condition \
                      constant on every path reaching it; drop the branch or \
                      fix the condition"
                   ~loc:(ploc ctx Diag.Body)
                   "definitely-unreachable branch: the %s-branch of this \
                    [if] is dead"
                   which)
            in
            if Domain.is_bot st_then && not (Domain.is_bot st_else) then
              dead "then"
            else if Domain.is_bot st_else && not (Domain.is_bot st_then) then
              dead "else"
        | _ -> ());
        let st1, v1 =
          if Domain.is_bot st_then then (st_then, None)
          else eval ctx st_then venv e1
        in
        let st2, v2 =
          if Domain.is_bot st_else then (st_else, None)
          else eval ctx st_else venv e2
        in
        join_values st1 v1 st2 v2
    | HL.While (c, body) -> (
        let inv =
          match ctx.proc with
          | None -> None
          | Some p ->
              let rec find i = function
                | [] -> None
                | (n, a) :: _ when n == e -> Some (i, a)
                | _ :: tl -> find (i + 1) tl
              in
              ignore body;
              find 0 p.V.invariants
        in
        match inv with
        | Some (idx, inv) -> while_with_inv ctx st venv c body idx inv
        | None -> while_fixpoint ctx st venv c body)
    | HL.Alloc e ->
        let st, tv = eval ctx st venv e in
        let v = match tv with Some v -> v | None -> Domain.fresh_atom () in
        let st, l = Domain.alloc st v in
        (st, Some l)
    | HL.Load e -> (
        let st, tl = eval ctx st venv e in
        match tl with
        | Some l -> (st, Some (Domain.load st l))
        | None -> (st, None))
    | HL.Store (el, ev) -> (
        let st, tl = eval ctx st venv el in
        let st, tv = eval ctx st venv ev in
        match (tl, tv) with
        | Some l, Some v -> (Domain.store st l v, tunit)
        | Some l, None -> (Domain.store st l (Domain.fresh_atom ()), tunit)
        | None, _ -> (Domain.havoc_values st, tunit))
    | HL.Free e -> (
        let st, tl = eval ctx st venv e in
        match tl with
        | Some l -> (Domain.remove st l, tunit)
        | None ->
            (* freeing an unknown location may deallocate any chunk *)
            ({ st with Domain.heap = [] }, tunit))
    | HL.Faa (el, ed) -> (
        let st, tl = eval ctx st venv el in
        let st, td = eval ctx st venv ed in
        match tl with
        | Some l -> (
            match (Domain.find_chunk st l, td) with
            | Some (_, old), Some d -> (Domain.store st l (T.add old d), Some old)
            | Some (_, old), None ->
                (Domain.store st l (Domain.fresh_atom ()), Some old)
            | None, _ -> (Domain.havoc_values st, None))
        | None -> (Domain.havoc_values st, None))
    | HL.Cas (el, ee, ed) -> (
        let st, tl = eval ctx st venv el in
        let st, te = eval ctx st venv ee in
        let st, td = eval ctx st venv ed in
        match (tl, te) with
        | Some l, Some expected ->
            let cur = Domain.load st l in
            let win = Domain.assume st (Some (T.eq cur expected)) in
            let win =
              match td with
              | Some d -> Domain.store win l d
              | None -> Domain.store win l (Domain.fresh_atom ())
            in
            let lose = Domain.assume_not st (Some (T.eq cur expected)) in
            join_values win (Some (T.int 1)) lose (Some (T.int 0))
        | _ -> (Domain.havoc_values st, None))
    | HL.Assert e ->
        (* continuing executions are exactly those where the test held *)
        let st, cf = cond ctx st venv e in
        (Domain.assume st cf, tunit)
    | HL.GhostMark _ ->
        (* fold/unfold/ghost updates never change program values *)
        (st, tunit)
    | HL.App (f, a) ->
        let st, _ = eval ctx st venv f in
        let st, _ = eval ctx st venv a in
        (* an unknown callee may mutate or free anything we own *)
        ({ st with Domain.heap = [] }, None)
    | HL.Rec _ -> (st, None)
    | HL.PairE (a, b) ->
        let st, _ = eval ctx st venv a in
        let st, _ = eval ctx st venv b in
        (st, None)
    | HL.Fst e | HL.Snd e | HL.InjRE e | HL.InjLE e ->
        let st, _ = eval ctx st venv e in
        (st, None)
    | HL.Case (e, (x1, e1), (x2, e2)) ->
        let st, _ = eval ctx st venv e in
        let st1, v1 = eval ctx st (Smap.add x1 (Domain.fresh_atom ()) venv) e1 in
        let st2, v2 = eval ctx st (Smap.add x2 (Domain.fresh_atom ()) venv) e2 in
        join_values st1 v1 st2 v2
    | HL.Atomic e ->
        (* The abstraction is thread-local: interference on shared
           cells is already modelled by the symbolic heap (loads of
           unowned cells produce fresh atoms), so the section body
           evaluates normally. *)
        eval ctx st venv e
    | HL.Par (e1, e2) ->
        (* Mirror the executor: each branch runs from a heapless
           (pure-facts-only) view for its own diagnostics, results are
           discarded, and the continuation keeps the parent's cells —
           branches reach shared state only through the invariants. *)
        let entry = { st with Domain.heap = [] } in
        let _ = eval ctx entry venv e1 in
        let _ = eval ctx entry venv e2 in
        (st, tunit)

(* Abstract truthiness of a condition expression, as a bool-sorted
   formula — comparisons keep their relational form (the executor
   round-trips them through the 0/1 encoding; [Absdom] reasons about
   [a < b] directly). Falls back to [t ≠ 0] on the encoded value. *)
and cond ctx st venv (e : HL.expr) : Domain.t * T.t option =
  match e with
  | HL.Val (HL.Bool b) -> (st, Some (T.bool b))
  | HL.UnOp (HL.Not, e) ->
      let st, c = cond ctx st venv e in
      (st, Option.map T.not_ c)
  | HL.BinOp (((HL.Eq | HL.Ne | HL.Lt | HL.Le | HL.Gt | HL.Ge) as op), a, b)
    -> (
      let st, ta = eval ctx st venv a in
      let st, tb = eval ctx st venv b in
      match (ta, tb) with
      | Some ta, Some tb ->
          let f =
            match op with
            | HL.Eq -> T.eq ta tb
            | HL.Ne -> T.neq ta tb
            | HL.Lt -> T.lt ta tb
            | HL.Le -> T.le ta tb
            | HL.Gt -> T.gt ta tb
            | _ -> T.ge ta tb
          in
          (st, Some f)
      | _ -> (st, None))
  | HL.BinOp (HL.AndOp, a, b) -> (
      (* non-short-circuit, as in the executor: both sides evaluate *)
      let st, ca = cond ctx st venv a in
      let st, cb = cond ctx st venv b in
      match (ca, cb) with
      | Some a, Some b -> (st, Some (T.and_ [ a; b ]))
      | _ -> (st, None))
  | HL.BinOp (HL.OrOp, a, b) -> (
      let st, ca = cond ctx st venv a in
      let st, cb = cond ctx st venv b in
      match (ca, cb) with
      | Some a, Some b -> (st, Some (T.or_ [ a; b ]))
      | _ -> (st, None))
  | HL.Let (x, e1, e2) ->
      let st, t1 = eval ctx st venv e1 in
      let v = match t1 with Some t -> t | None -> Domain.fresh_atom () in
      cond ctx st (Smap.add x v venv) e2
  | HL.Seq (a, b) ->
      let st, _ = eval ctx st venv a in
      cond ctx st venv b
  | _ ->
      let st, t = eval ctx st venv e in
      (st, Option.map (fun t -> T.neq t (T.int 0)) t)

(* A while loop with a declared invariant, mirrored off
   [Exec.exec_while]: inhale the invariant into a chunk-less copy of
   the entry state (entry *pure* knowledge about immutable atoms
   survives arbitrarily many iterations; entry *chunks* do not), check
   the body preserves it abstractly (DA022), and exit with ¬guard plus
   the framed entry chunks restored. *)
and while_with_inv ctx st venv cond_e body idx inv =
  let iloc = ploc ctx (Diag.Invariant idx) in
  add ctx
    (Diag.warning ~code:"DA025"
       ~hint:
         "termination is outside the verifier's guarantees; record the \
          intended measure as a pure conjunct (e.g. ⌜0 <= n - !i⌝) so the \
          decrease is at least visible"
       ~loc:iloc
       "while loop has no variant/decreases hint; termination is unchecked");
  let icases = Domain.inhale_cases { st with Domain.heap = [] } inv in
  let inv_locs =
    List.concat_map (fun (ist, _) -> List.map fst ist.Domain.heap) icases
  in
  (* The frame: entry chunks the invariant does not claim. Only
     meaningful when every claimed location is an entry chunk we can
     match syntactically — otherwise the invariant may own any of our
     chunks, and we keep none. *)
  let frame =
    let owns_all =
      List.for_all
        (fun l -> Option.is_some (Domain.find_chunk st l))
        inv_locs
    in
    if owns_all then
      List.filter
        (fun (l, _) -> not (List.exists (T.equal l) inv_locs))
        st.Domain.heap
    else []
  in
  List.iter
    (fun (ist, case) ->
      if not (Domain.is_bot ist) then begin
        let ist, cf = cond ctx ist venv cond_e in
        let body_st = Domain.assume ist cf in
        if not (Domain.is_bot body_st) then begin
          let st_end, _ = eval ctx body_st venv body in
          if not (Domain.is_bot st_end) then da022 ctx iloc st_end case
        end
      end)
    icases;
  let exit =
    List.fold_left
      (fun acc (ist, _) ->
        if Domain.is_bot ist then acc
        else
          let ist, cf = cond ctx ist venv cond_e in
          Domain.join acc (Domain.assume_not ist cf))
      Domain.bot icases
  in
  ({ exit with Domain.heap = exit.Domain.heap @ frame }, tunit)

(* DA022: is the invariant abstractly inductive? [case] is the
   freshened disjunct that was inhaled at the loop head; [st_end] the
   abstract state after one body iteration. Re-bind each existential
   chunk value (a binder atom) to the *end* state's value at the same
   location, then ask whether each pure conjunct — and each
   non-existential chunk value — is re-established. [Maybe] only
   warns when the conjunct is non-relational (at most one atom in its
   comparison): a single-variable fact is exactly what this domain
   can decide, so failure to re-establish it is signal; a relational
   fact ([⌜!i <= n⌝]-style) beyond the domain's precision stays
   silent. *)
and da022 ctx iloc st_end (case : Footprint.case) =
  let smap =
    List.fold_left
      (fun m (ch : Footprint.chunk) ->
        match T.view ch.Footprint.value with
        | T.Var (x, _) -> (
            match Domain.find_chunk st_end ch.Footprint.loc with
            | Some (_, w) -> Smap.add x w m
            | None -> m)
        | _ -> m)
      Smap.empty case.Footprint.chunks
  in
  let chunk_checks =
    List.filter_map
      (fun (ch : Footprint.chunk) ->
        match T.view ch.Footprint.value with
        | T.Var _ -> None
        | _ -> (
            match Domain.find_chunk st_end ch.Footprint.loc with
            | Some (_, w) -> Some (T.eq w (T.subst smap ch.Footprint.value))
            | None -> None))
      case.Footprint.chunks
  in
  let checks = List.map (T.subst smap) case.Footprint.pures @ chunk_checks in
  let conjuncts phi =
    match T.view phi with T.And ts -> ts | _ -> [ phi ]
  in
  let report verb phi =
    add ctx
      (Diag.warning ~code:"DA022"
         ~hint:
           "the SMT backend may still prove it — this is the \
            interval/parity abstraction's verdict — but an invariant the \
            abstraction cannot re-establish usually wants strengthening"
         ~loc:iloc
         "loop invariant is not abstractly inductive: after one body \
          iteration the abstract state %s ⌜%a⌝" verb T.pp phi)
  in
  List.iter
    (fun phi ->
      List.iter
        (fun phi ->
          match Domain.holds st_end phi with
          | AD.Yes -> ()
          | AD.No -> report "refutes" phi
          | AD.Maybe -> (
              match AD.comparison_atoms (Domain.resolve_reads st_end phi) with
              | Some n when n <= 1 -> report "cannot re-establish" phi
              | _ -> ()))
        (conjuncts phi))
    checks

(* A while loop with no invariant annotation: only reachable from
   hand-built programs (the well-formedness pass makes it DA008 in
   specs) and from the soundness harness's closed expressions. A
   join-then-widen fixpoint, muted so a not-yet-stable candidate
   cannot leak "definitely" claims; one unmuted pass over the stable
   state reports for real. *)
and while_fixpoint ctx st venv cond_e body =
  let step s =
    let s, cf = cond ctx s venv cond_e in
    let body_st = Domain.assume s cf in
    if Domain.is_bot body_st then Domain.bot
    else fst (eval ctx body_st venv body)
  in
  let rec iterate s k =
    let s_end = step s in
    let next = Domain.join s s_end in
    if Domain.leq next s then s
    else if k <= 0 then begin
      (* budget exhausted: havoc every chunk value and re-check once;
         if even that is not stable (the body allocates or frees), all
         heap claims go *)
      let h =
        {
          Domain.env = AD.top;
          heap = List.map (fun (l, _) -> (l, Domain.fresh_atom ())) s.Domain.heap;
        }
      in
      let h_end = step h in
      if Domain.leq (Domain.join h h_end) h then h else Domain.top
    end
    else iterate (if k <= 3 then Domain.widen s next else next) (k - 1)
  in
  let s_fix = with_mute ctx (fun () -> iterate st 6) in
  (* reporting pass over the stable loop state *)
  ignore (step s_fix);
  let s_fix, cf = cond ctx s_fix venv cond_e in
  (Domain.assume_not s_fix cf, tunit)

(* ------------------------------------------------------------------ *)
(* Entry points *)

(** Abstract execution of a bare expression from [st] — the soundness
    harness's and the pre-discharge's view of the interpreter. Never
    reports diagnostics. *)
let eval_expr ?(st = Domain.top) (e : HL.expr) : Domain.t * T.t option =
  let ctx = { unit_name = ""; proc = None; diags = ref []; mute = true } in
  eval ctx st Smap.empty e

(* ------------------------------------------------------------------ *)
(* Per-procedure checks *)

let rec expr_vars acc (e : HL.expr) =
  match e with
  | HL.Val v -> value_vars acc v
  | HL.Var x -> x :: acc
  | HL.Rec (_, _, e)
  | HL.UnOp (_, e)
  | HL.Fst e
  | HL.Snd e
  | HL.InjLE e
  | HL.InjRE e
  | HL.Alloc e
  | HL.Load e
  | HL.Free e
  | HL.Assert e
  | HL.Atomic e ->
      expr_vars acc e
  | HL.App (a, b)
  | HL.BinOp (_, a, b)
  | HL.Seq (a, b)
  | HL.While (a, b)
  | HL.PairE (a, b)
  | HL.Store (a, b)
  | HL.Faa (a, b)
  | HL.Par (a, b)
  | HL.Let (_, a, b) ->
      expr_vars (expr_vars acc a) b
  | HL.If (a, b, c) | HL.Cas (a, b, c) ->
      expr_vars (expr_vars (expr_vars acc a) b) c
  | HL.Case (e, (_, e1), (_, e2)) ->
      expr_vars (expr_vars (expr_vars acc e) e1) e2
  | HL.GhostMark _ -> acc

and value_vars acc (v : HL.value) =
  match v with
  | HL.Sym x -> x :: acc
  | HL.Pair (a, b) -> value_vars (value_vars acc a) b
  | HL.InjL v | HL.InjR v -> value_vars acc v
  | HL.RecV (_, _, e) -> expr_vars acc e
  | HL.Unit | HL.Bool _ | HL.Int _ | HL.Loc _ -> acc

let ghost_cmd_vars (c : V.ghost_cmd) : string list =
  let tvars t = List.map fst (T.vars t) in
  match c with
  | V.Fold (_, ts) | V.Unfold (_, ts) -> List.concat_map tvars ts
  | V.Update (_, a, b) ->
      List.concat_map tvars (A.ghost_val_terms a @ A.ghost_val_terms b)
  | V.GAlloc (_, v) -> List.concat_map tvars (A.ghost_val_terms v)
  | V.AssertA a -> A.free_vars a

(* DA023: a ⌊·⌋ around an already-stable assertion. Stabilization is
   idempotent and monotone, so the marker does nothing — and hides
   which reads actually needed one. *)
let rec redundant_stabilize ctx site path (a : A.t) =
  let deeper = Stability.step_of a :: path in
  (match a with
  | A.Stabilize p when Stability.stable p ->
      add ctx
        (Diag.warning ~code:"DA023"
           ~hint:
             "drop the ⌊·⌋ — the enclosed assertion is stable as written, \
              and the marker hides which reads actually need anchoring"
           ~loc:{ (ploc ctx site) with Diag.path = List.rev deeper }
           "redundant stabilization: the enclosed assertion is already \
            stable")
  | _ -> ());
  match a with
  | A.Pure _ | A.Emp | A.Points_to _ | A.Pred _ | A.Ghost _ | A.Wp _ -> ()
  | A.Sep (p, q) | A.Wand (p, q) | A.And (p, q) | A.Or (p, q) ->
      redundant_stabilize ctx site deeper p;
      redundant_stabilize ctx site deeper q
  | A.Exists (_, p)
  | A.Forall (_, p)
  | A.Persistently p
  | A.Later p
  | A.Upd p
  | A.Stabilize p ->
      redundant_stabilize ctx site deeper p

let check_proc ~unit_name (p : V.proc) : Diag.t list =
  let ctx = { unit_name; proc = Some p; diags = ref []; mute = false } in
  (* DA020: every disjunct of the requires is abstractly unsatisfiable
     — the procedure body is unreachable and verification vacuous. *)
  let seeds = Domain.seed p.V.requires in
  let live = List.filter (fun s -> not (Domain.is_bot s)) seeds in
  if live = [] then
    add ctx
      (Diag.error ~code:"DA020"
         ~hint:
           "every caller must prove this clause, and no state satisfies \
            it; the procedure verifies vacuously"
         ~loc:(ploc ctx Diag.Requires)
         "contradictory requires: no abstract state satisfies any disjunct");
  (* DA021: same question of the ensures (with [result] free). *)
  if List.for_all Domain.is_bot (Domain.seed p.V.ensures) then
    add ctx
      (Diag.error ~code:"DA021"
         ~hint:
           "no exit state can satisfy this clause, so the body can never \
            verify against it"
         ~loc:(ploc ctx Diag.Ensures)
         "trivially-false ensures: no abstract state satisfies any disjunct");
  (* DA023 over every specification clause. *)
  redundant_stabilize ctx Diag.Requires [] p.V.requires;
  redundant_stabilize ctx Diag.Ensures [] p.V.ensures;
  List.iteri
    (fun i (_, inv) -> redundant_stabilize ctx (Diag.Invariant i) [] inv)
    p.V.invariants;
  (* DA024: parameters no clause and no body expression mentions. *)
  let used = Hashtbl.create 16 in
  let addv = List.iter (fun x -> Hashtbl.replace used x ()) in
  addv (expr_vars [] p.V.body);
  addv (A.free_vars p.V.requires);
  addv (A.free_vars p.V.ensures);
  List.iter (fun (_, a) -> addv (A.free_vars a)) p.V.invariants;
  List.iter
    (fun (_, cmds) -> List.iter (fun c -> addv (ghost_cmd_vars c)) cmds)
    p.V.ghost;
  List.iter
    (fun x ->
      if not (Hashtbl.mem used x) then
        add ctx
          (Diag.warning ~code:"DA024"
             ~hint:"remove the parameter, or constrain it in the spec"
             ~loc:(ploc ctx Diag.Body)
             "parameter %s is used neither by the body nor by any \
              specification clause"
             x))
    p.V.params;
  (* DA018/DA019/DA022/DA025 come from running the interpreter over
     the body, seeded with the join of the satisfiable requires
     disjuncts (the join over-approximates every entry, so "definite"
     claims hold on all of them). *)
  (match live with
  | [] -> ()
  | s :: rest -> ignore (eval ctx (List.fold_left Domain.join s rest) Smap.empty p.V.body));
  (* loop fixpoints and per-case body checks can re-visit a site *)
  List.sort_uniq Stdlib.compare !(ctx.diags)

let check_program ~unit_name (prog : V.program) : Diag.t list =
  List.concat_map (check_proc ~unit_name) prog.V.procs
