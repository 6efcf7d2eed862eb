(** Persistent entailment sessions.

    A session keeps one {!Theory} state alive across many entailment
    queries, the way a translational verifier keeps one solver process:
    hypotheses (path conditions, heap facts) are {e pushed} as symbolic
    execution descends and {e popped} on the way back up, and each
    obligation is discharged against the live context instead of
    re-sending — and re-purifying — the whole context per query.

    Soundness discipline. A formula reaches the theory as its {e cases}
    ({!cases}): its disjunctive normal form over theory literals, with
    an integer [ite] inside a literal lifted into its two sides. A
    hypothesis with exactly one case is asserted as that conjunction,
    which is equivalent to it; anything else (several cases, an iff, a
    boolean [ite]) is recorded but held back. A check is decided by
    theory probes over its {e branches} ({!probe}): the cases of the
    negated goal, or one empty case for the bare context, each times
    both strict sides [a < b] and [b < a] of every integer disequality
    in scope, the context's and the goal's. Disequalities are the one
    nonconvex literal here (e.g. [2x ≤ 2y ≤ 2x+1, x ≠ y] is theory-Sat
    but integer-Unsat); with a strict side asserted, a branch is a
    convex conjunction and its theory answer is exact.

    - [Unsat] on every branch is {e always} trusted: the asserted
      hypotheses are implied by the full context and the branches
      cover the negated goal, so their unsatisfiability transfers —
      [Valid].
    - A [Sat] branch is trusted when nothing is held back and every
      disequality in scope was split: its model satisfies the context
      and the negated goal — [Invalid].
    - The context's disequalities are split only while the branches
      stay within {!max_branches} (8); unsplit, their [Sat] is not
      trusted. Past the bound even without them, nothing is probed.
      Outside the trusted fragment the session falls back to the full
      one-shot pipeline ({!Solver.entails}).

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
  mutable neqs : Term.t list;
      (** the asserted integer disequalities in scope, as their [Eq]
          terms, newest-first *)
  mutable saved : (Term.t list * int * Term.t list) list;
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
    neqs = [];
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
(* Cases *)

let is_lit_atom (t : Term.t) =
  match Term.view t with
  | Term.Eq _ | Term.Le _ | Term.Lt _ | Term.Pred _ -> true
  | Term.Var (_, Sort.Bool) -> true
  | _ -> false

(** The nonconvex literals: negated integer equalities. *)
let is_neq (a : Theory.atom) =
  match (Term.view a.Theory.term, a.Theory.pos) with
  | Term.Eq (x, _), false -> Sort.equal (Term.sort_of x) Sort.Int
  | _ -> false

(** The most cases a formula may have, and the most branches a check
    may probe ({!probe}). *)
let max_branches = 8

(** The first integer [ite] in [t], outermost and leftmost, with its
    condition and branches. Allocates nothing when there is none. *)
let rec find_ite (t : Term.t) =
  match Term.view t with
  | Term.Ite (c, a, b) when Sort.equal (Term.sort_of a) Sort.Int ->
      Some (t, c, a, b)
  | Term.Var _ | Term.Int_lit _ | Term.True | Term.False -> None
  | Term.App (_, ts) | Term.Pred (_, ts) | Term.And ts | Term.Or ts ->
      List.find_map find_ite ts
  | Term.Not a -> find_ite a
  | Term.Add (a, b) | Term.Sub (a, b) | Term.Mul (a, b) | Term.Eq (a, b)
  | Term.Le (a, b) | Term.Lt (a, b) | Term.Implies (a, b) | Term.Iff (a, b) -> (
      match find_ite a with None -> find_ite b | r -> r)
  | Term.Ite (c, a, b) -> (
      match find_ite c with
      | None -> ( match find_ite a with None -> find_ite b | r -> r)
      | r -> r)

(** [t] with every occurrence of [target] replaced by [by], rebuilt
    with the smart constructors, so literals that become constant
    fold away. *)
let rec replace target by (t : Term.t) =
  if t == target then by
  else
    let r = replace target by in
    match Term.view t with
    | Term.Var _ | Term.Int_lit _ | Term.True | Term.False -> t
    | Term.App (f, ts) -> Term.app f (List.map r ts)
    | Term.Pred (f, ts) -> Term.pred f (List.map r ts)
    | Term.Add (a, b) -> Term.add (r a) (r b)
    | Term.Sub (a, b) -> Term.sub (r a) (r b)
    | Term.Mul (a, b) -> Term.mul (r a) (r b)
    | Term.Ite (c, a, b) -> Term.ite (r c) (r a) (r b)
    | Term.Eq (a, b) -> Term.eq (r a) (r b)
    | Term.Le (a, b) -> Term.le (r a) (r b)
    | Term.Lt (a, b) -> Term.lt (r a) (r b)
    | Term.Not a -> Term.not_ (r a)
    | Term.And ts -> Term.and_ (List.map r ts)
    | Term.Or ts -> Term.or_ (List.map r ts)
    | Term.Implies (a, b) -> Term.implies (r a) (r b)
    | Term.Iff (a, b) -> Term.iff (r a) (r b)

exception No_cases

let union a b =
  if List.length a + List.length b > max_branches then raise No_cases
  else a @ b

(* [y @ x]: a conjunction's literals come out newest-first, the order
   the theory has always been handed them. *)
let product a b =
  if List.length a * List.length b > max_branches then raise No_cases
  else List.concat_map (fun x -> List.map (fun y -> y @ x) b) a

(** The disjunctive normal form of [t] (or of [¬t]) over theory
    literals. An integer [ite(c, a, b)] inside a literal [l] splits it
    into [c ∧ l[a]] and [¬c ∧ l[b]], so the encoding
    [ite(c, 1, 0) = 0] of a false program comparison becomes exactly
    [¬c]. Raises [No_cases] past {!max_branches} cases, or on an iff
    or a boolean [ite]. *)
let rec dnf pos (t : Term.t) : Theory.atom list list =
  match Term.view t with
  | Term.True -> if pos then [ [] ] else []
  | Term.False -> if pos then [] else [ [] ]
  | Term.Not a -> dnf (not pos) a
  | Term.And ts -> if pos then conj pos ts else disj pos ts
  | Term.Or ts -> if pos then disj pos ts else conj pos ts
  | Term.Implies (a, b) ->
      if pos then union (dnf false a) (dnf true b)
      else product (dnf true a) (dnf false b)
  | _ when is_lit_atom t -> (
      match find_ite t with
      | None -> [ [ { Theory.term = t; pos } ] ]
      | Some (ite, c, a, b) ->
          let side v =
            let l = replace ite v t in
            if pos then l else Term.not_ l
          in
          dnf true
            (Term.or_
               [ Term.and_ [ c; side a ]; Term.and_ [ Term.not_ c; side b ] ]))
  | _ -> raise No_cases

and conj pos ts =
  List.fold_left (fun acc t -> product acc (dnf pos t)) [ [] ] ts

and disj pos ts = List.fold_left (fun acc t -> union acc (dnf pos t)) [] ts

(** [cases pos t]: the conjunctions of theory literals whose
    disjunction is [t] (for [pos]) or [¬t] (otherwise), or [None] when
    there are more than {!max_branches} or boolean structure the
    theory cannot take remains. *)
let cases pos t =
  match dnf pos t with cs -> Some cs | exception No_cases -> None

(* --------------------------------------------------------------- *)
(* Asserting *)

let assert_atom s th (a : Theory.atom) =
  Theory.assert_literal th a;
  if is_neq a then s.neqs <- a.Theory.term :: s.neqs

(** A hypothesis with one case is asserted as that conjunction, which
    is equivalent to it; anything else is held back. An unpurifiable
    literal holds it back too: whatever was asserted before the
    failure is implied by [h], so keeping it is sound — but [Sat] can
    no longer be trusted. *)
let assert_hyp s (h : Term.t) =
  s.hyps <- h :: s.hyps;
  s.gen <- s.gen + 1;
  let asserted =
    match cases true h with
    | Some [ atoms ] -> (
        match List.iter (assert_atom s (theory s)) atoms with
        | () -> true
        | exception Invalid_argument _ -> false)
    | _ -> false
  in
  if not asserted then s.nonlit <- s.nonlit + 1

(* --------------------------------------------------------------- *)
(* Probing branches *)

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

(** What the theory probes of a check's branches established. *)
type outcome =
  | Refuted  (** every branch is [Unsat] *)
  | Model of int Smap.t  (** the first [Sat] branch, trusted *)
  | Undecided of reason

let rec count_neqs = function
  | [] -> 0
  | a :: rest -> (if is_neq a then 1 else 0) + count_neqs rest

(** The branches of [cases] when each case also splits [extra]
    disequalities, counted up to one past {!max_branches}. *)
let rec branch_count extra = function
  | [] -> 0
  | c :: rest ->
      let k = extra + count_neqs c in
      if k >= Sys.int_size - 2 then max_branches + 1
      else min (max_branches + 1) ((1 lsl k) + branch_count extra rest)

(** Assert one strict side of each disequality in [ds], [a < b] where
    bit [i] of [mask] is clear for the [i]-th one, [b < a] where it is
    set. [Term.lt] cannot fold: an interned [Eq] node has distinct
    non-literal operands. *)
let rec assert_sides th mask = function
  | [] -> ()
  | d :: ds ->
      (match Term.view d with
      | Term.Eq (a, b) ->
          let a, b = if mask land 1 = 0 then (a, b) else (b, a) in
          Theory.assert_literal th { Theory.term = Term.lt a b; pos = true }
      | _ -> assert false (* is_neq only matches Eq *));
      assert_sides th (mask lsr 1) ds

(** Probe the branches of a check whose negated goal has [cases]: each
    case times both strict sides of every integer disequality in
    scope, the case's own and the context's — the session-level
    analogue of the one-shot solver's eager split lemma. A strict side
    separates its pair in every model, so each branch is a plain
    conjunction and both of its theory answers are exact: every branch
    [Unsat] refutes the negated goal, and a [Sat] branch is a model of
    it, trusted when nothing is held back. The context's
    disequalities are split only when nothing is held back and the
    branches stay within {!max_branches}; unsplit, their [Sat] is not
    trusted. Past the bound even without them, nothing is probed. *)
let probe s cases =
  let nctx = List.length s.neqs in
  let split_ctx =
    s.nonlit = 0 && nctx > 0 && branch_count nctx cases <= max_branches
  in
  let ctx_neqs = if split_ctx then s.neqs else [] in
  if branch_count (List.length ctx_neqs) cases > max_branches then
    Undecided Goal_neqs
  else begin
    let th = theory s in
    let stats = Stats.current () in
    let probed = ref 0 in
    let check atoms ds mask =
      if !probed > 0 then
        stats.Stats.session_split_probes <-
          stats.Stats.session_split_probes + 1;
      incr probed;
      Theory.push_scoped th;
      let r =
        match
          List.iter (Theory.assert_literal th) atoms;
          assert_sides th mask ds
        with
        | () -> Some (Theory.check th)
        | exception Invalid_argument _ -> None
      in
      Theory.pop_scoped th;
      r
    in
    let rec each_case = function
      | [] -> Refuted
      | atoms :: rest ->
          let ds =
            List.fold_left
              (fun ds a -> if is_neq a then a.Theory.term :: ds else ds)
              ctx_neqs atoms
          in
          let n = 1 lsl List.length ds in
          let rec each_side mask =
            if mask = n then each_case rest
            else
              match check atoms ds mask with
              | Some Theory.Unsat -> each_side (mask + 1)
              | Some (Theory.Sat m) ->
                  if s.nonlit > 0 then Undecided Held_back
                  else if nctx > 0 && not split_ctx then Undecided Ctx_neq
                  else Model m
              | Some (Theory.Resource_out _) | None -> Undecided Inconclusive
          in
          each_side 0
    in
    each_case cases
  end

(* --------------------------------------------------------------- *)
(* Context model caching *)

(** The branches of the bare context, probed once per generation:
    [Unsat] is always trusted (the asserted atoms are implied by the
    hypotheses), a model is trusted when {!probe} trusts it. The
    verifier asks about the same live context many times in a row
    (feasibility after every step, one {!separated} test per heap
    chunk scanned), so this is checked once and then answered from
    cache until the context changes.

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
      let st =
        match probe s [ [] ] with
        | Refuted -> CtxUnsat
        | Model m -> CtxSat m
        | Undecided _ -> CtxUnknown
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
  match cases false goal with
  | None -> fallback Nonlit_goal
  | Some ncases -> (
      let invalid m =
        let ints = Smap.filter (fun x _ -> x.[0] <> '%') m in
        Solver.Invalid { Solver.ints; bools = Smap.empty }
      in
      match context_status s with
      | CtxUnsat -> Solver.Valid (* inconsistent context entails anything *)
      | ctx -> (
          (* Model-based fast paths over the cached context model:
             feasibility queries ([goal = False], one empty case) are
             answered directly, and a single-disequality goal is
             refuted by extending the model over a context-fresh
             variable. Both skip the theory solver entirely. *)
          let refuted =
            match (ncases, ctx) with
            | [ [] ], CtxSat m -> Some (invalid m)
            | [ [ n ] ], CtxSat m when is_neq n -> (
                match Term.view n.Theory.term with
                | Term.Eq (a, b) -> Option.map invalid (refute_neq s m a b)
                | _ -> None)
            | _ -> None
          in
          match (refuted, ncases) with
          | Some v, _ -> v
          | None, [ [] ] -> fallback Untrusted_ctx
          | None, _ -> (
              match probe s ncases with
              | Refuted -> Solver.Valid
              | Model m -> invalid m
              | Undecided reason -> fallback reason)))
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
