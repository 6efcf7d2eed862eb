(** The symbolic executor: an automated, SMT-backed verifier in the
    style of translational separation-logic verifiers, built on the
    destabilized assertion language.

    Programs are {!Heaplang.Ast} expressions whose specification-level
    parameters appear as [Sym] values; procedure calls are applications
    of named procedures with pre/postconditions; loops carry invariant
    annotations; ghost commands (fold/unfold/ghost updates) hang off
    [GhostMark] nodes.

    Heap-dependent assertions do the heavy lifting: every pure formula
    in a spec may read the heap ([!l]), and the executor resolves the
    read against the symbolic heap at the program point where the
    assertion sits — the stability discipline then guarantees the
    resolved facts survive, so nothing is re-proved at mutation
    points. Compare [lib/proofmode], which pays for a kernel theorem
    at every step. *)

open Stdx
module A = Baselogic.Assertion
module GV = Baselogic.Ghost_val
module K = Baselogic.Kernel
module T = Smt.Term
module HL = Heaplang.Ast
open State

type ghost_cmd =
  | Fold of string * T.t list
  | Unfold of string * T.t list
  | Update of string * GV.t * GV.t  (** ghost name, from, to *)
  | GAlloc of string * GV.t
  | AssertA of A.t  (** assert without consuming *)

type proc = {
  pname : string;
  params : string list;
  requires : A.t;
  ensures : A.t;  (** may mention the reserved variable [result] *)
  body : HL.expr;
  invariants : (HL.expr * A.t) list;  (** [While] nodes, physically *)
  ghost : (string * ghost_cmd list) list;  (** [GhostMark] keys *)
}

type program = {
  procs : proc list;
  preds : A.pred_env;
  invs : (string * A.t) list;
      (** named invariants governing the shared heap; opened (all of
          them) at every [atomic] section and consumed back at its end *)
}

let find_proc prog f = List.find_opt (fun p -> String.equal p.pname f) prog.procs

(** Spec-shaped failures raise {!Diag.Spec_error} with a structured
    location (who referenced what, from where), so callers always see
    where the bad reference sits; [verify_proc] renders them as
    [Failed]. The static analyzer ([lib/analysis]) reports the same
    conditions as [DA0xx] diagnostics before execution — a program it
    passes cannot reach any of these. *)
let default_loc = Diag.loc Diag.Program Diag.Body

let pred_body ?(loc = default_loc) (penv : A.pred_env) name args =
  match Smap.find_opt name penv with
  | None -> Diag.spec_error ~code:"DA001" ~loc "unknown predicate %s" name
  | Some def ->
      if List.length args <> List.length def.A.params then
        Diag.spec_error ~code:"DA002" ~loc
          "predicate %s applied to %d arguments, declared with %d" name
          (List.length args)
          (List.length def.A.params);
      A.subst
        (Smap.of_list (List.map2 (fun x t -> (x, t)) def.A.params args))
        def.A.body

let value_term (v : HL.value) : T.t =
  match K.value_term v with
  | Some t -> t
  | None -> fail "value %a has no term encoding" HL.pp_value v

(* ------------------------------------------------------------------ *)
(* Ghost commands *)

let exec_ghost ?loc (prog : program) (st : t) (cmd : ghost_cmd) : t list =
  match cmd with
  | Fold (p, args) ->
      (* Arguments may read the heap ([fold stk(!s)]): resolve them
         against the owned chunks at the fold point, so the folded
         chunk carries the value actually stored there. *)
      let args = List.map (resolve st) args in
      let body = pred_body ?loc prog.preds p args in
      let st = consume st body in
      [ add_chunk st (A.Pred (p, args)) ]
  | Unfold (p, args) ->
      let args = List.map (resolve st) args in
      let st = consume st (A.Pred (p, args)) in
      (* Disjunctive predicate bodies split the state per case. *)
      inhale_cases st (pred_body ?loc prog.preds p args)
  | Update (g, from_gv, to_gv) -> (
      match
        take st (function
          | A.Ghost (g', gv') ->
              String.equal g g'
              && (match GV.eq_condition gv' from_gv with
                 | Some cond -> entails st cond
                 | None -> false)
          | _ -> false)
      with
      | Some (_, st') -> (
          match GV.update from_gv to_gv with
          | Some cond when entails st' cond ->
              let st' = add_chunk st' (A.Ghost (g, to_gv)) in
              [ add_pure st' (GV.valid_fact to_gv) ]
          | Some _ -> fail "ghost update %s: side condition not provable" g
          | None -> fail "ghost update %s: unrecognized pattern" g)
      | None -> fail "ghost update: no chunk %s matching %a" g GV.pp from_gv)
  | GAlloc (g, gv) ->
      if List.exists (function A.Ghost (g', _) -> String.equal g g' | _ -> false)
           st.chunks
      then fail "ghost alloc: name %s already allocated" g;
      if not (entails st (GV.valid_fact gv)) then
        fail "ghost alloc %s: element not valid" g;
      [ add_chunk st (A.Ghost (g, gv)) ]
  | AssertA a ->
      (* Check on a throwaway copy; the state is unchanged. *)
      ignore (consume st a);
      [ st ]

(* ------------------------------------------------------------------ *)
(* The executor *)

type env = T.t Smap.t

let binop st op (a : T.t) (b : T.t) : T.t =
  match op with
  | HL.Div | HL.Rem -> (
      ignore st;
      match K.divrem_term op a b with
      | Some t -> t
      | None ->
          fail "div/rem: only concrete operands supported (got %a %s %a)"
            T.pp a
            (if op = HL.Div then "/" else "%%")
            T.pp b)
  | _ -> (
      match K.binop_term op a b with
      | Some t -> t
      | None -> fail "binop %a unsupported symbolically" HL.pp_bin_op op)

(** Execute [e]; return the possible (state, result-term) pairs. *)
let rec exec (prog : program) (proc : proc) (st : t) (env : env)
    (e : HL.expr) : (t * T.t) list =
  match e with
  | HL.Val v -> [ (st, value_term v) ]
  | HL.Var x -> (
      match Smap.find_opt x env with
      | Some t -> [ (st, t) ]
      | None -> fail "unbound program variable %s" x)
  | HL.Let (x, e1, e2) ->
      exec prog proc st env e1
      |> List.concat_map (fun (st, t) ->
             exec prog proc st (Smap.add x t env) e2)
  | HL.Seq (e1, e2) ->
      exec prog proc st env e1
      |> List.concat_map (fun (st, _) -> exec prog proc st env e2)
  | HL.UnOp (op, e1) ->
      exec prog proc st env e1
      |> List.map (fun (st, t) ->
             match op with
             | HL.Neg -> (st, T.sub (T.int 0) t)
             | HL.Not -> (st, T.sub (T.int 1) t))
  | HL.BinOp (op, e1, e2) ->
      exec prog proc st env e1
      |> List.concat_map (fun (st, a) ->
             exec prog proc st env e2
             |> List.map (fun (st, b) -> (st, binop st op a b)))
  | HL.If (c, e1, e2) ->
      exec prog proc st env c
      |> List.concat_map (fun (st, b) ->
             st.stats.Vstats.branches <- st.stats.Vstats.branches + 1;
             let then_st = add_pure st (T.not_ (T.eq b (T.int 0))) in
             let else_st = add_pure st (T.eq b (T.int 0)) in
             (if feasible then_st then exec prog proc then_st env e1 else [])
             @
             if feasible else_st then exec prog proc else_st env e2 else [])
  | HL.While (_, _) -> exec_while prog proc st env e
  | HL.Alloc e1 ->
      exec prog proc st env e1
      |> List.map (fun (st, t) ->
             let l = fresh ~hint:"l" st in
             let lt = T.var l in
             (* Freshness: distinct from every location we know of. *)
             let st =
               List.fold_left
                 (fun st c ->
                   match c with
                   | A.Points_to { loc; _ } -> add_pure st (T.neq lt loc)
                   | _ -> st)
                 st st.chunks
             in
             let st = add_pure st (T.le (T.int 0) lt) in
             (add_chunk st (A.points_to lt t), lt))
  | HL.Load e1 ->
      exec prog proc st env e1
      |> List.map (fun (st, l) ->
             match find_points_to st l with
             | Some (_, _, v) -> (st, v)
             | None -> fail "load: no permission for %a" T.pp l)
  | HL.Store (e1, e2) ->
      exec prog proc st env e1
      |> List.concat_map (fun (st, l) ->
             exec prog proc st env e2
             |> List.map (fun (st, w) ->
                    let st = store_full st l w in
                    (st, T.int 0)))
  | HL.Free e1 ->
      exec prog proc st env e1
      |> List.map (fun (st, l) ->
             match take_full st l with
             | st, _ -> (st, T.int 0))
  | HL.Faa (e1, e2) ->
      exec prog proc st env e1
      |> List.concat_map (fun (st, l) ->
             exec prog proc st env e2
             |> List.map (fun (st, d) ->
                    let st, old = take_full st l in
                    let st = add_chunk st (A.points_to l (T.add old d)) in
                    (st, old)))
  | HL.Cas (e1, e2, e3) ->
      exec prog proc st env e1
      |> List.concat_map (fun (st, l) ->
             exec prog proc st env e2
             |> List.concat_map (fun (st, expected) ->
                    exec prog proc st env e3
                    |> List.concat_map (fun (st, desired) ->
                           st.stats.Vstats.branches <-
                             st.stats.Vstats.branches + 1;
                           let st, cur = take_full st l in
                           let win =
                             add_pure
                               (add_chunk st (A.points_to l desired))
                               (T.eq cur expected)
                           in
                           let lose =
                             add_pure
                               (add_chunk st (A.points_to l cur))
                               (T.neq cur expected)
                           in
                           (if feasible win then [ (win, T.int 1) ] else [])
                           @
                           if feasible lose then [ (lose, T.int 0) ]
                           else [])))
  | HL.Assert e1 ->
      exec prog proc st env e1
      |> List.map (fun (st, b) ->
             if entails st (T.not_ (T.eq b (T.int 0))) then (st, T.int 0)
             else fail "assert: cannot prove %a ≠ 0" T.pp b)
  | HL.GhostMark key -> (
      match List.assoc_opt key proc.ghost with
      | Some cmds ->
          let loc =
            Diag.loc (Diag.Proc proc.pname) (Diag.Ghost_block key)
          in
          List.fold_left
            (fun sts cmd ->
              List.concat_map (fun st -> exec_ghost ~loc prog st cmd) sts)
            [ st ] cmds
          |> List.map (fun st -> (st, T.int 0))
      | None ->
          Diag.spec_error ~code:"DA009"
            ~loc:(Diag.loc (Diag.Proc proc.pname) Diag.Body)
            "ghost mark %s has no command block" key)
  | HL.Par (e1, e2) ->
      (* Structured fork-join. Each branch starts from the pure facts
         only — it owns no chunks; everything shared is reached through
         the named invariants at its own atomic sections — and must
         verify on its own. The parent's chunks are untouchable by the
         branches (they never hold them), so the continuation resumes
         with the parent state unchanged; the fork/join is the
         interference point accounted to [interference_havocs]. There
         is no schedule to vary: both branches start from the same
         [entry] and neither sees the other's result. *)
      st.stats.Vstats.par_branches <- st.stats.Vstats.par_branches + 2;
      let entry = pures_only st in
      List.iter
        (fun branch -> ignore (exec prog proc entry env branch))
        [ e1; e2 ];
      st.stats.Vstats.interference_havocs <-
        st.stats.Vstats.interference_havocs + 1;
      [ (st, T.int 0) ]
  | HL.Atomic e1 ->
      if st.opened <> [] then
        Diag.spec_error ~code:"DA026"
          ~loc:(Diag.loc (Diag.Proc proc.pname) Diag.Body)
          "nested atomic section in %s: invariant%s %s already open"
          proc.pname
          (if List.length st.opened > 1 then "s" else "")
          (String.concat ", " st.opened);
      if prog.invs = [] then exec prog proc st env e1
      else begin
        st.stats.Vstats.inv_opens <-
          st.stats.Vstats.inv_opens + List.length prog.invs;
        let opened = { st with opened = List.map fst prog.invs } in
        let open_sts =
          List.fold_left
            (fun sts (_, body) ->
              List.concat_map (fun st -> inhale_cases st body) sts)
            [ opened ] prog.invs
          |> List.map compat_facts
          |> List.filter feasible
        in
        open_sts
        |> List.concat_map (fun st -> exec prog proc st env e1)
        |> List.map (fun (st_end, res) ->
               (* Close: every invariant body must be re-established
                  and is handed back to the registry. *)
               let st_end =
                 List.fold_left
                   (fun st (_, body) -> consume st body)
                   st_end prog.invs
               in
               ({ st_end with opened = [] }, res))
      end
  | HL.App _ -> exec_call prog proc st env e
  | HL.Rec _ | HL.PairE _ | HL.Fst _ | HL.Snd _ | HL.InjLE _ | HL.InjRE _
  | HL.Case _ ->
      fail "unsupported construct in verified code: %a" HL.pp_expr e

(** A full-permission chunk at [l]: remove it, returning its value. *)
and take_full st l =
  match
    take st (function
      | A.Points_to { loc; frac; _ } ->
          Q.equal frac Q.one && same_loc st l loc
      | _ -> false)
  with
  | Some (A.Points_to { value; _ }, st') -> (st', value)
  | _ -> fail "no full-permission chunk for %a" T.pp l

and store_full st l w =
  let st, _ = take_full st l in
  add_chunk st (A.points_to l w)

(** Loops: consume the invariant (framing the rest), verify the body
    in a havocked state once, and continue from the exit states. *)
and exec_while prog proc st env (loop : HL.expr) : (t * T.t) list =
  let cond, body =
    match loop with HL.While (c, b) -> (c, b) | _ -> assert false
  in
  let inv =
    match List.find_opt (fun (n, _) -> n == loop) proc.invariants with
    | Some (_, inv) -> inv
    | None ->
        Diag.spec_error ~code:"DA008"
          ~loc:(Diag.loc (Diag.Proc proc.pname) Diag.Body)
          "while loop without an invariant annotation in %s" proc.pname
  in
  st.stats.Vstats.loops <- st.stats.Vstats.loops + 1;
  (* Entry: the invariant must hold; everything else is the frame. *)
  let frame = consume st inv in
  (* Havoc: fresh state with only the pure knowledge (symbols are
     immutable) plus a fresh copy of the invariant. *)
  let havocs = inhale_cases (pures_only frame) inv in
  let paths = List.concat_map (fun h -> exec prog proc h env cond) havocs in
  let exits = ref [] in
  List.iter
    (fun (stc, b) ->
      stc.stats.Vstats.branches <- stc.stats.Vstats.branches + 1;
      (* Body path: guard holds; run the body and restore the
         invariant. *)
      let body_st = add_pure stc (T.not_ (T.eq b (T.int 0))) in
      if feasible body_st then
        exec prog proc body_st env body
        |> List.iter (fun (st_end, _) -> ignore (consume st_end inv));
      (* Exit path: guard fails; continue after the loop. *)
      let exit_st = add_pure stc (T.eq b (T.int 0)) in
      if feasible exit_st then exits := exit_st :: !exits)
    paths;
  (* Exit states keep the frame chunks. *)
  List.map
    (fun ex -> ({ ex with chunks = ex.chunks @ frame.chunks }, T.int 0))
    !exits

(** Procedure calls: applications spine-collected,
    [App (App (Var f, a1), a2)]. *)
and exec_call prog proc st env (e : HL.expr) : (t * T.t) list =
  let rec spine acc = function
    | HL.App (f, a) -> spine (a :: acc) f
    | HL.Var f -> (f, acc)
    | e -> fail "call: unsupported callee %a" HL.pp_expr e
  in
  let f, args = spine [] e in
  let call_loc = Diag.loc (Diag.Proc proc.pname) Diag.Body in
  let callee =
    match find_proc prog f with
    | Some p -> p
    | None ->
        Diag.spec_error ~code:"DA003" ~loc:call_loc
          "unknown procedure %s (called from %s)" f proc.pname
  in
  if List.length args <> List.length callee.params then
    Diag.spec_error ~code:"DA004" ~loc:call_loc
      "call %s from %s: %d arguments for %d parameters" f proc.pname
      (List.length args)
      (List.length callee.params);
  st.stats.Vstats.calls <- st.stats.Vstats.calls + 1;
  (* Evaluate arguments left to right, threading states. *)
  let rec eval_args st acc = function
    | [] -> [ (st, List.rev acc) ]
    | a :: rest ->
        exec prog proc st env a
        |> List.concat_map (fun (st, t) -> eval_args st (t :: acc) rest)
  in
  eval_args st [] args
  |> List.concat_map (fun (st, arg_terms) ->
         let bind =
           Smap.of_list (List.map2 (fun x t -> (x, t)) callee.params arg_terms)
         in
         let st = consume st (A.subst bind callee.requires) in
         let res = fresh ~hint:"r" st in
         let bind = Smap.add "result" (T.var res) bind in
         inhale_cases st (A.subst bind callee.ensures)
         |> List.map (fun st -> (st, T.var res)))

(* ------------------------------------------------------------------ *)
(* Entry points *)

(** Captured crash information: the exception and the backtrace at the
    point it escaped, both already rendered (exceptions don't cross
    domain boundaries reliably and the engine ships results between
    domains). *)
type exn_info = { exn : string; backtrace : string }

type outcome =
  | Verified
  | Failed of string  (** the program violates its specification *)
  | Timeout of string  (** deadline/cancellation — the verifier gave up *)
  | Resource_out of string  (** a fuel knob ran dry — the verifier gave up *)
  | Crashed of exn_info  (** an unexpected exception escaped the verifier *)

let pp_outcome ppf = function
  | Verified -> Fmt.string ppf "verified"
  | Failed m -> Fmt.pf ppf "failed: %s" m
  | Timeout m -> Fmt.pf ppf "timeout: %s" m
  | Resource_out m -> Fmt.pf ppf "resource-out: %s" m
  | Crashed { exn; _ } -> Fmt.pf ppf "crashed: %s" exn

(** The [Resource_out] message of a procedure refused because an
    integer left the native range. The refusal is deterministic: more
    budget cannot change it, so it is never retried. *)
let int_out_of_range = "integer out of range"

(** Did the verifier actually decide the program? [Timeout],
    [Resource_out] and [Crashed] are abstentions, not judgements. *)
let decided = function
  | Verified | Failed _ -> true
  | Timeout _ | Resource_out _ | Crashed _ -> false

(** Verify one procedure against its specification. [stats] is the
    {!Vstats} instance obligations are accounted to; each call gets a
    private fresh one by default, so concurrent jobs never share.

    Each procedure opens one incremental solver session
    ({!Smt.Session}) that lives for the whole symbolic execution: path
    conditions are pushed as execution descends and every obligation
    ([entails], [feasible]) is discharged against the live context,
    instead of shipping the full hypothesis list to a fresh solver per
    query. Sessions are per-procedure (never shared across jobs), so
    the parallel engine's workers stay isolated. A caller may pass a
    fresh [session] to inspect it afterwards (its lemma store). *)
let verify_proc ?(heap_dep = true) ?(absint = true)
    ?(srcmap : Diag.srcmap = []) ?(stats = Vstats.create ()) ?session
    (prog : program) (proc : proc) : outcome =
  match
    (* Deadline check on entry: a procedure whose budget is already
       spent (e.g. late in a tight per-job deadline) stops here rather
       than starting work it cannot finish. *)
    Budget.poll_now ();
    (* [create] is inside the guarded region: it enforces the
       declaration-time stability of every predicate body (DA012). *)
    let st =
      create ~heap_dep ~absint ?session ~stats ~penv:prog.preds
        ~invs:prog.invs ()
    in
    inhale_cases st proc.requires
    |> List.iter (fun st ->
           exec prog proc st Smap.empty proc.body
           |> List.iter (fun (st_end, res) ->
                  let post = A.subst1 "result" res proc.ensures in
                  ignore (consume st_end post)))
  with
  | () -> Verified
  | exception Verification_error m -> Failed m
  | exception Diag.Spec_error d ->
      Failed (Diag.to_string (Diag.relocate srcmap d))
  | exception Budget.Exhausted ((Budget.Deadline _ | Budget.Cancelled) as r)
    ->
      let s = Smt.Stats.current () in
      s.Smt.Stats.deadline_stops <- s.Smt.Stats.deadline_stops + 1;
      Timeout (Budget.reason_to_string r)
  | exception Budget.Exhausted (Budget.Fuel _ as r) ->
      Resource_out (Budget.reason_to_string r)
  | exception Stdx.Checked.Overflow ->
      (* The logic's integers are unbounded: a value a native [int]
         cannot hold is refused, never wrapped and never a crash. *)
      stats.Vstats.int_out_of_range <- stats.Vstats.int_out_of_range + 1;
      Resource_out int_out_of_range

(** Verify every procedure of a program; returns per-procedure
    outcomes. A shared [stats] instance accumulates across all
    procedures. *)
let verify ?heap_dep ?absint ?srcmap ?stats (prog : program) :
    (string * outcome) list =
  List.map
    (fun p -> (p.pname, verify_proc ?heap_dep ?absint ?srcmap ?stats prog p))
    prog.procs
