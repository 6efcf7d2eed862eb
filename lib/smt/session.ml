(** Persistent entailment sessions.

    A session keeps one {!Theory} state alive across many entailment
    queries, the way a translational verifier keeps one solver process:
    hypotheses (path conditions, heap facts) are {e pushed} as symbolic
    execution descends and {e popped} on the way back up, and each
    obligation is discharged against the live context instead of
    re-sending — and re-purifying — the whole context per query.

    Soundness discipline. The live state holds only hypotheses that are
    conjunctions of theory literals; anything with residual boolean
    structure (disjunctions, iffs, uneliminated [ite]) is recorded but
    not asserted. A goal is checked by asserting its negated literals
    under a checkpoint:

    - [Unsat] is {e always} trusted: the asserted hypotheses are
      implied by the full context, so their unsatisfiability (with the
      negated goal) transfers — [Valid].
    - [Sat] is trusted only when nothing was held back {e and} no
      integer disequality is in scope. Disequalities are the one
      nonconvex literal here: the one-shot pipeline splits [a ≠ b] into
      strict branches at the SAT level, which a pure conjunction check
      cannot imitate (e.g. [2x ≤ 2y ≤ 2x+1, x ≠ y] is theory-Sat but
      integer-Unsat). Outside the trusted fragment the session falls
      back to the full one-shot pipeline ({!Solver.entails}).

    Verdicts therefore coincide with the one-shot API on every query;
    the differential tests in [test/test_smt.ml] pin this.

    Linear identities (⟦v+1+1⟧ against ⟦v+2⟧, possibly through context
    equalities naming intermediate values) get no shortcut here: the
    verifier's abstract pre-discharge settles them before a goal
    reaches the session, and what it leaves is decided by the same
    theory probes as every other goal (DESIGN.md §11.2).

    Lemma store. Every fallback of a session hands {!Solver.entails}
    the theory-conflict cores the session's earlier fallbacks learned,
    and keeps the ones it learns itself. A core is a set of literals
    the theory refuted (minimization trusts only [Unsat]), so its
    negation is valid whatever its variables mean: seeding it never
    changes a verdict, it only skips the lazy-loop rounds and the core
    minimization that would find the same conflict again. The store is
    independent of the context, so {!push}/{!pop} leave it alone; it
    dies with the session, i.e. with the procedure. An injected
    session fault stands for lost state, so that fallback neither
    reads nor writes the store. *)

open Stdx

(** What one theory check of the bare context established — memoized
    per context generation, so feasibility queries and model-based
    refutations over an unchanged context cost nothing. *)
type ctx_status =
  | CtxUnsat  (** the hypotheses themselves are inconsistent *)
  | CtxSat of int Smap.t  (** trusted model of the context *)
  | CtxUnknown  (** untrusted [Sat] or an inconclusive theory check *)

type t = {
  mutable th : Theory.state option;
      (** made on first use ({!theory}); [None] until then *)
  mutable hyps : Term.t list;  (** everything in scope, newest-first *)
  mutable nonlit : int;  (** hypotheses in scope not (fully) asserted *)
  mutable neqs : int;  (** asserted integer disequalities in scope *)
  mutable saved : (Term.t list * int * int) list;
      (** frame stack *)
  mutable synced : Term.t list;  (** oldest-first, one frame per hyp;
                                     maintained by {!sync} only *)
  mutable gen : int;  (** bumped on every context change *)
  mutable ctx_cache : (int * ctx_status) option;
  mutable ctx_vars : (int * unit Smap.t) option;
      (** variables occurring in the hypotheses, per generation *)
  mutable lemmas : Theory.atom list list;
      (** theory-conflict cores learned by this session's fallbacks,
          newest-first; see the header *)
}

let create () =
  {
    th = None;
    hyps = [];
    nonlit = 0;
    neqs = 0;
    saved = [];
    synced = [];
    gen = 0;
    ctx_cache = None;
    ctx_vars = None;
    lemmas = [];
  }

(** The session's theory state, made on its first use. A procedure
    whose context stays empty and whose goals never reach a theory
    probe never pays for one (congruence and simplex arrays, three
    hashtables). *)
let theory s =
  match s.th with
  | Some th -> th
  | None ->
      let th = Theory.create () in
      s.th <- Some th;
      th

let push s =
  Theory.push_scoped (theory s);
  s.gen <- s.gen + 1;
  s.saved <- (s.hyps, s.nonlit, s.neqs) :: s.saved

let pop s =
  match s.saved with
  | [] -> invalid_arg "Session.pop: no matching push"
  | (hyps, nonlit, neqs) :: rest ->
      Theory.pop_scoped (theory s);
      s.gen <- s.gen + 1;
      s.hyps <- hyps;
      s.nonlit <- nonlit;
      s.neqs <- neqs;
      s.saved <- rest

(* --------------------------------------------------------------- *)
(* Literal classification *)

let is_lit_atom (t : Term.t) =
  match Term.view t with
  | Term.Eq _ | Term.Le _ | Term.Lt _ | Term.Pred _ -> true
  | Term.Var (_, Sort.Bool) -> true
  | _ -> false

(** The atoms of [t] viewed as a conjunction of literals, or [None] if
    boolean structure remains. *)
let rec pos_atoms acc (t : Term.t) : Theory.atom list option =
  match Term.view t with
  | Term.True -> Some acc
  | Term.And ts ->
      List.fold_left
        (fun acc t -> Option.bind acc (fun acc -> pos_atoms acc t))
        (Some acc) ts
  | Term.Not a when is_lit_atom a -> Some ({ Theory.term = a; pos = false } :: acc)
  | _ when is_lit_atom t -> Some ({ Theory.term = t; pos = true } :: acc)
  | _ -> None

(** The atoms of [¬t] viewed as a conjunction of literals — [t] must be
    a disjunction of literals for this to exist. *)
let rec neg_atoms acc (t : Term.t) : Theory.atom list option =
  match Term.view t with
  | Term.False -> Some acc
  | Term.Or ts ->
      List.fold_left
        (fun acc t -> Option.bind acc (fun acc -> neg_atoms acc t))
        (Some acc) ts
  | Term.Not a when is_lit_atom a -> Some ({ Theory.term = a; pos = true } :: acc)
  | _ when is_lit_atom t -> Some ({ Theory.term = t; pos = false } :: acc)
  | _ -> None

(** The nonconvex literals: negated integer equalities. *)
let is_neq (a : Theory.atom) =
  match (Term.view a.Theory.term, a.Theory.pos) with
  | Term.Eq (x, _), false -> Sort.equal (Term.sort_of x) Sort.Int
  | _ -> false

(* --------------------------------------------------------------- *)
(* Asserting and checking *)

let assert_hyp s (h : Term.t) =
  s.hyps <- h :: s.hyps;
  s.gen <- s.gen + 1;
  match pos_atoms [] h with
  | None -> s.nonlit <- s.nonlit + 1
  | Some atoms -> (
      match List.iter (Theory.assert_literal (theory s)) atoms with
      | () ->
          List.iter (fun a -> if is_neq a then s.neqs <- s.neqs + 1) atoms
      | exception Invalid_argument _ ->
          (* Unpurifiable literal (e.g. an embedded [ite]); whatever was
             asserted before the failure is implied by [h], so keeping
             it is sound — but [Sat] can no longer be trusted. *)
          s.nonlit <- s.nonlit + 1)

(* --------------------------------------------------------------- *)
(* Context model caching *)

(** One theory check of the bare context, memoized per generation:
    [Unsat] is always trusted (the asserted atoms are implied by the
    hypotheses), a model is trusted only when nothing was held back and
    no disequality is in scope. The verifier asks about the same live
    context many times in a row (feasibility after every step, one
    {!separated} test per heap chunk scanned), so this is checked once and
    then answered from cache until the context changes.

    An empty context (no hypothesis, so nothing held back and no
    disequality) needs no check at all: it is [CtxSat] with the empty
    model, which is what a fresh theory state's check answers once the
    theory's own [%] names are dropped ({!check_goal}'s [invalid]). *)
let empty_ctx = CtxSat Smap.empty

let context_status s =
  match (s.hyps, s.ctx_cache) with
  | [], _ -> empty_ctx
  | _, Some (g, st) when g = s.gen -> st
  | _ ->
      let th = theory s in
      Theory.push_scoped th;
      let r = Theory.check th in
      Theory.pop_scoped th;
      let st =
        match r with
        | Theory.Unsat -> CtxUnsat
        | Theory.Sat m when s.nonlit = 0 && s.neqs = 0 -> CtxSat m
        | Theory.Sat _ | Theory.Resource_out _ -> CtxUnknown
      in
      s.ctx_cache <- Some (s.gen, st);
      st

let context_vars s =
  match s.ctx_vars with
  | Some (g, vs) when g = s.gen -> vs
  | _ ->
      let vs =
        List.fold_left
          (fun acc h ->
            List.fold_left
              (fun acc (x, _) -> Smap.add x () acc)
              acc (Term.vars h))
          Smap.empty s.hyps
      in
      s.ctx_vars <- Some (s.gen, vs);
      vs

(** [fresh_side ctx t other]: is [t] an integer variable occurring
    neither in the hypotheses (whose variables are [ctx]) nor in
    [other]? Such a side makes [t = other] refutable under any
    satisfiable context: every model of the context extends to one
    separating the two sides, because [t] is unconstrained. Allocates
    nothing: {!separated} asks it of every heap-chunk candidate. *)
let fresh_side ctx (t : Term.t) (other : Term.t) =
  match Term.view t with
  | Term.Var (x, Sort.Int) ->
      (not (Smap.mem x ctx)) && not (Term.occurs x other)
  | _ -> false

(** The orientations [(x, other)] of [a = b] whose side [x] is
    {!fresh_side}, left side first. *)
let fresh_sides s (a : Term.t) (b : Term.t) : (string * Term.t) list =
  let ctx = context_vars s in
  let side t other =
    match Term.view t with
    | Term.Var (x, _) when fresh_side ctx t other -> [ (x, other) ]
    | _ -> []
  in
  side a b @ side b a

(** [refute_neq s m a b] tries to extend the trusted context model [m]
    to a witness of [a ≠ b] over a {!fresh_sides} orientation, so the
    entailment of [a = b] is refuted with no theory work. The witness
    values are best-effort: other context-fresh variables default to 0,
    which cannot falsify hypotheses they do not occur in. *)
let refute_neq s (m : int Smap.t) (a : Term.t) (b : Term.t) =
  List.find_map
    (fun (x, other) ->
      let env =
        List.fold_left
          (fun env (y, srt) ->
            if Sort.equal srt Sort.Int && not (Smap.mem y env) then
              Smap.add y 0 env
            else env)
          m (Term.vars other)
      in
      match Option.map (Stdx.Checked.add 1) (Term.eval ~env other) with
      | Some v -> Some (Smap.add x v env)
      | None | (exception Stdx.Checked.Overflow) -> None)
    (fresh_sides s a b)

(** Escape hatch for benchmarks and differential tests: when set, every
    {!check_goal} routes through the one-shot pipeline exactly
    like the pre-session verifier, so session-based and one-shot runs
    can be compared on identical workloads. Domain-local would be
    cleaner, but the flag is only flipped by single-domain harnesses. *)
let oneshot = ref false

(** [separated s a b]: is [a = b] refuted by the live context without a
    check? True only when the cached context status is a trusted model
    and one side is context-fresh ({!fresh_side}) — the verifier's
    heap-chunk lookups ask this of every candidate before spending an
    obligation on it. Never under {!oneshot}, whose runs must ask the
    one-shot pipeline every question. *)
let separated s (a : Term.t) (b : Term.t) =
  (not !oneshot)
  && (match context_status s with CtxSat _ -> true | _ -> false)
  &&
  let ctx = context_vars s in
  fresh_side ctx a b || fresh_side ctx b a

(** Why a check left the session for the one-shot pipeline, in the
    order {!check_goal} tests the reasons; each has its [fallback_*]
    counter in {!Stats}. *)
type reason =
  | Fault
  | Nonlit_goal
  | Untrusted_ctx
  | Held_back
  | Ctx_neq
  | Goal_neqs
  | Inconclusive

let count_fallback (st : Stats.t) = function
  | Fault -> st.fallback_fault <- st.fallback_fault + 1
  | Nonlit_goal -> st.fallback_nonlit_goal <- st.fallback_nonlit_goal + 1
  | Untrusted_ctx -> st.fallback_untrusted_ctx <- st.fallback_untrusted_ctx + 1
  | Held_back -> st.fallback_held_back <- st.fallback_held_back + 1
  | Ctx_neq -> st.fallback_ctx_neq <- st.fallback_ctx_neq + 1
  | Goal_neqs -> st.fallback_goal_neqs <- st.fallback_goal_neqs + 1
  | Inconclusive -> st.fallback_inconclusive <- st.fallback_inconclusive + 1

(** Discharge the negated-goal atoms against the live context by theory
    probes. Integer disequalities among them are split into strict
    branches, [a ≠ b] into [a < b] and [b < a] — the session-level
    analogue of the one-shot solver's eager split lemma. Each branch is
    convex (the strict inequality separates the pair in every model),
    so both verdicts are trustworthy per branch: the goal is entailed
    iff every branch is Unsat, and one trusted-Sat branch refutes it.
    Past two disequalities the 2^m blowup stops paying; fall back. *)
let probe s natoms fallback invalid =
  let neqs_g, convex = List.partition is_neq natoms in
  if List.length neqs_g > 2 then fallback Goal_neqs
  else begin
    let rec branches acc = function
      | [] -> [ acc ]
      | n :: rest -> (
          match Term.view n.Theory.term with
          | Term.Eq (a, b) ->
              (* [Term.lt] cannot fold: an interned [Eq] node has
                 distinct non-literal operands. *)
              branches
                ({ Theory.term = Term.lt a b; pos = true } :: n :: acc)
                rest
              @ branches
                  ({ Theory.term = Term.lt b a; pos = true } :: n :: acc)
                  rest
          | _ -> assert false (* is_neq only matches Eq *))
    in
    let check_branch atoms =
      let th = theory s in
      Theory.push_scoped th;
      let r =
        match List.iter (Theory.assert_literal th) atoms with
        | () -> Some (Theory.check th)
        | exception Invalid_argument _ -> None
      in
      Theory.pop_scoped th;
      r
    in
    let rec eval = function
      | [] -> Ok None (* every branch refuted: goal entailed *)
      | atoms :: rest -> (
          match check_branch atoms with
          | Some Theory.Unsat -> eval rest
          | Some (Theory.Sat m) ->
              if s.nonlit > 0 then Error Held_back
              else if s.neqs > 0 then Error Ctx_neq
              else Ok (Some m)
          | _ -> Error Inconclusive)
    in
    match eval (branches convex neqs_g) with
    | Ok None -> Solver.Valid
    | Ok (Some m) -> invalid m
    | Error reason -> fallback reason
  end

let check_goal s (goal : Term.t) : Solver.verdict =
  if !oneshot then Solver.entails ~hyps:(List.rev s.hyps) goal
  else begin
  let stats = Stats.current () in
  stats.Stats.session_checks <- stats.Stats.session_checks + 1;
  let fallback reason =
    stats.Stats.session_fallbacks <- stats.Stats.session_fallbacks + 1;
    count_fallback stats reason;
    let hyps = List.rev s.hyps in
    if reason = Fault then Solver.entails ~hyps goal
    else
      Solver.entails ~lemmas:s.lemmas
        ~learn:(fun core -> s.lemmas <- core :: s.lemmas)
        ~hyps goal
  in
  (* Chaos-testing hook: an injected session fault stands for a lost or
     corrupted incremental state. Degrading to the bare one-shot
     pipeline (no lemma store either) is exactly the recovery the
     fallback path exists for, so verdicts are unchanged — only
     [session_fallbacks] moves. *)
  if Fault.fires Fault.Session then fallback Fault
  else
  match neg_atoms [] goal with
  | None -> fallback Nonlit_goal
  | Some natoms -> (
      let invalid m =
        let ints = Smap.filter (fun x _ -> x.[0] <> '%') m in
        Solver.Invalid { Solver.ints; bools = Smap.empty }
      in
      match context_status s with
      | CtxUnsat -> Solver.Valid (* inconsistent context entails anything *)
      | ctx -> (
          (* Model-based fast paths over the cached context model:
             feasibility queries ([goal = False], no negated atoms) are
             answered directly, and a single-disequality goal is
             refuted by extending the model over a context-fresh
             variable. Both skip the theory solver entirely. *)
          let refuted =
            match (natoms, ctx) with
            | [], CtxSat m -> Some (invalid m)
            | [ n ], CtxSat m when is_neq n -> (
                match Term.view n.Theory.term with
                | Term.Eq (a, b) -> Option.map invalid (refute_neq s m a b)
                | _ -> None)
            | _ -> None
          in
          match refuted with
          | Some v -> v
          | None ->
              if natoms = [] then fallback Untrusted_ctx
              else probe s natoms fallback invalid))
  end

(* --------------------------------------------------------------- *)
(* Context synchronization *)

(** [sync s hyps] re-points the session at exactly [hyps]
    (oldest-first), one frame per hypothesis, reusing the longest
    common prefix of what is already pushed. This is how the verifier
    drives a session: branching symbolic execution hands each branch's
    path condition over as a list, and branches sharing a prefix pay
    only for their delta. Physical equality identifies unchanged
    hypotheses — path conditions are shared sublists across branches —
    and a miss merely costs a pop/re-assert, never correctness.

    Must not be interleaved with manual {!push}/{!pop} on the same
    session: sync owns the frame discipline. *)
let sync s (hyps : Term.t list) =
  let rec lcp n olds news =
    match (olds, news) with
    | o :: os, h :: hs when o == h -> lcp (n + 1) os hs
    | _ -> n
  in
  let k = lcp 0 s.synced hyps in
  for _ = 1 to List.length s.synced - k do
    pop s
  done;
  let kept = Listx.take k s.synced in
  let added = Listx.drop k hyps in
  List.iter
    (fun h ->
      push s;
      assert_hyp s h)
    added;
  s.synced <- kept @ added
