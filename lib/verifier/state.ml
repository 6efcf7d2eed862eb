(** Symbolic verification state: a pure path condition plus a symbolic
    heap of chunks, with the inhale/consume operations of a
    Viper-style verifier — except that pure assertions may read the
    heap ([!l] terms), which is the destabilized logic's contribution:
    reads are resolved against owned chunks at inhale/consume time and
    the resulting facts are stable, so nothing needs re-threading at
    mutation points. *)

open Stdx
module A = Baselogic.Assertion
module GV = Baselogic.Ghost_val
module T = Smt.Term

exception Verification_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Verification_error s)) fmt

type t = {
  penv : A.pred_env;
  gensym : Gensym.t;
  heap_dep : bool;  (** heap-dependent assertions enabled (A1 toggle) *)
  absint : bool;  (** abstract pre-discharge enabled ([--no-absint]) *)
  stats : Vstats.t;  (** instance this run accumulates into *)
  session : Smt.Session.t;
      (** the procedure's incremental solver session, shared (mutably)
          by every branch state forked from this one — see {!entails} *)
  invs : (string * A.t) list;
      (** named-invariant registry: shared-state assertions opened (and
          re-established) at every [atomic] section *)
  opened : string list;
      (** names of the invariants currently open in this state — the
          mask; non-empty exactly inside an atomic section, and a
          second open while non-empty is the DA026 reentrancy error *)
  pures : T.t list;  (** path condition; always heap-read-free *)
  absenv : Absdom.t;
      (** interval×parity abstraction of [pures], maintained
          incrementally by {!add_pure}; {!entails} asks it before the
          solver and short-circuits only [Yes] ("every concretization
          satisfies the goal" — the only-Valid discipline) *)
  chunks : A.t list;  (** Points_to / Ghost / Pred *)
}

let create ?(heap_dep = true) ?(absint = true) ?(penv = Smap.empty)
    ?(invs = []) ?session ?stats () =
  (* Declaration-time stability: [A.stable]'s [Pred _ -> true] case is
     sound only if every predicate body in scope is itself stable — a
     chunk stands for its body under interference. Enforced here (and
     reported pre-verification as DA012 by the static analyzer). *)
  Smap.iter
    (fun _ (def : A.pred_def) ->
      if not (A.stable def.A.body) then
        Diag.spec_error ~code:"DA012"
          ~loc:(Diag.loc (Diag.Pred def.A.pname) Diag.Pred_body)
          "predicate %s is unstable at declaration: a heap read escapes \
           its body's footprint"
          def.A.pname)
    penv;
  (* Same discipline for named invariants (DA028): an invariant chunk
     stands for its body *between* atomic sections, under arbitrary
     interference from other threads — an unstable body would be
     meaningless the moment the section closes. *)
  List.iter
    (fun (n, body) ->
      if not (A.stable body) then
        Diag.spec_error ~code:"DA028"
          ~loc:(Diag.loc (Diag.Inv n) Diag.Inv_body)
          "invariant %s is unstable at declaration: a heap read escapes \
           its body's footprint"
          n)
    invs;
  let stats = match stats with Some s -> s | None -> Vstats.create () in
  let session =
    match session with Some s -> s | None -> Smt.Session.create ()
  in
  {
    penv;
    gensym = Gensym.create ~prefix:"v" ();
    heap_dep;
    absint;
    stats;
    session;
    invs;
    opened = [];
    pures = [];
    absenv = Absdom.top;
    chunks = [];
  }

let fresh ?hint st = Gensym.fresh ?hint st.gensym

let add_pure st phi =
  {
    st with
    pures = phi :: st.pures;
    absenv = (if st.absint then Absdom.assume phi st.absenv else st.absenv);
  }
let add_chunk st c = { st with chunks = c :: st.chunks }

(* Re-point the procedure's session at this branch's path condition.
   Branch states are functional copies sharing one mutable session;
   [Session.sync] pops/pushes only the delta against the previously
   synced branch, and since [pures] grows by prepending onto shared
   sublists, sibling branches pay only for their differing suffix. *)
let sync_session st = Smt.Session.sync st.session (List.rev st.pures)

let count_obligation st =
  st.stats.Vstats.obligations <- st.stats.Vstats.obligations + 1;
  (* One guaranteed deadline check per proof obligation: even a VC
     whose solver work happens entirely inside fast paths cannot
     overshoot its budget by more than one obligation. *)
  Budget.poll_now ()

(* The abstraction's verdict on an obligation: only [Yes] settles it. *)
let absint_settles st (tv : Absdom.tv) =
  tv = Absdom.Yes
  && begin
       st.stats.Vstats.absint_discharged <-
         st.stats.Vstats.absint_discharged + 1;
       true
     end

(* What neither the syntactic tests nor the abstraction settled goes
   to the procedure's session. *)
let ask_session st phi =
  if st.absint then
    st.stats.Vstats.absint_abstained <- st.stats.Vstats.absint_abstained + 1;
  sync_session st;
  match Smt.Session.check_goal st.session phi with
  | Smt.Solver.Valid -> true
  | Smt.Solver.Invalid _ | Smt.Solver.Undecided -> false
  | Smt.Solver.Gave_up r -> raise (Budget.Exhausted r)

let entails st phi =
  count_obligation st;
  T.equal phi T.tru
  || List.exists (T.equal phi) st.pures
  || (match T.view phi with T.Eq (a, b) -> T.equal a b | _ -> false)
  || (st.absint && absint_settles st (Absdom.holds st.absenv phi))
  || ask_session st phi

(* Is the node [Eq (a, b)] one of [pures]? *)
let rec mem_eq a b = function
  | [] -> false
  | p :: ps -> (
      match T.view p with
      | T.Eq (x, y) when T.equal x a && T.equal y b -> true
      | _ -> mem_eq a b ps)

(** [entails_eq st a b] is [entails st (T.eq a b)], with the same
    answer and counters, but interns the equality only when it must go
    to the session. Most of the verifier's equality questions (chunk
    locations, points-to values, predicate arguments) are settled by
    the abstraction first, and a term interned for nothing is promoted
    out of the minor heap at the next collection (DESIGN.md §11.1). *)
let entails_eq st a b =
  if not (T.eq_is_node a b) then entails st (T.eq a b)
  else begin
    (* [T.eq a b] is the node [Eq (a, b)]: not [tru], with distinct
       sides, so [entails]'s first and third tests fail. *)
    count_obligation st;
    mem_eq a b st.pures
    || (st.absint && absint_settles st (Absdom.holds_eq st.absenv a b))
    || ask_session st (T.eq a b)
  end

(** Is the chunk location [at] the sought location [l]? The one test
    every heap-chunk lookup applies to its candidates, in the lookup's
    own scan order: the same hash-consed term matches at once; a
    candidate the live context separates from [l] without a check
    ({!Smt.Session.separated}: a trusted context model and a
    context-fresh side) is rejected without an obligation; anything
    else is an {!entails_eq} question. The middle step only skips
    candidates {!entails} would reject, so every lookup picks the same
    chunk as asking {!entails} of every candidate. *)
let same_loc st l at =
  T.equal l at
  || begin
       sync_session st;
       (not (Smt.Session.separated st.session l at)) && entails_eq st l at
     end

(** Is the current path feasible? Used to prune dead branches: the path
    condition is infeasible exactly when the live context entails
    [False]. *)
let feasible st =
  Budget.poll_now ();
  if st.absint && Absdom.is_bot st.absenv then begin
    (* The abstraction proved the path condition unsatisfiable — the
       branch is dead without asking the solver. *)
    st.stats.Vstats.absint_discharged <-
      st.stats.Vstats.absint_discharged + 1;
    false
  end
  else begin
  sync_session st;
  match Smt.Session.check_goal st.session T.fls with
  | Smt.Solver.Valid -> false
  | Smt.Solver.Invalid _ | Smt.Solver.Undecided -> true
  | Smt.Solver.Gave_up (Budget.Fuel _) ->
      (* Fuel-starved feasibility: treating the path as live is the
         sound direction (it only means more work), same as Undecided. *)
      true
  | Smt.Solver.Gave_up ((Budget.Deadline _ | Budget.Cancelled) as r) ->
      raise (Budget.Exhausted r)
  end

(* ------------------------------------------------------------------ *)
(* Heap reads *)

(** Find the chunk covering location [l] (any positive fraction). *)
let find_points_to st (l : T.t) =
  List.find_map
    (function
      | A.Points_to { loc; frac; value } ->
          if same_loc st l loc then Some (loc, frac, value) else None
      | _ -> None)
    st.chunks

(** Resolve every heap read in [phi] against the owned chunks. This is
    the verifier's use of the destabilized logic: a read obligates a
    positive fraction at the read location. *)
let resolve st (phi : T.t) : T.t =
  if not (Baselogic.Hterm.heap_dependent phi) then phi
  else if not st.heap_dep then
    fail "heap-dependent assertion %a with heap_dep disabled" T.pp phi
  else begin
    st.stats.Vstats.stab_checks <- st.stats.Vstats.stab_checks + 1;
    let phi' =
      Baselogic.Hterm.resolve
        (fun l ->
          match find_points_to st l with
          | Some (_, _, v) ->
              st.stats.Vstats.resolutions <-
                st.stats.Vstats.resolutions + 1;
              Some v
          | None -> None)
        phi
    in
    if Baselogic.Hterm.heap_dependent phi' then
      fail "heap read without permission in %a" T.pp phi'
    else phi'
  end

(* ------------------------------------------------------------------ *)
(* Inhale *)

(** Add an assertion to the state, opening existentials with fresh
    symbols and splitting on disjunctions (so recursive predicate
    bodies like list definitions unfold into one state per case).
    Chunks are added before pure parts are resolved, so reads in an
    assertion's pure parts can target its own chunks. *)
let inhale_cases (st : t) (a : A.t) : t list =
  let rec collect st pures a : (t * T.t list) list =
    match a with
    | A.Pure phi -> [ (st, phi :: pures) ]
    | A.Emp -> [ (st, pures) ]
    | A.Points_to _ as c -> [ (add_chunk st c, pures) ]
    | A.Ghost (_, gv) as c ->
        (* Validity comes for free on inhale. *)
        [ (add_chunk st c, GV.valid_fact gv :: pures) ]
    | A.Pred _ as c -> [ (add_chunk st c, pures) ]
    | A.Sep (p, q) | A.And (p, q) ->
        collect st pures p
        |> List.concat_map (fun (st, pures) -> collect st pures q)
    | A.Or (p, q) -> collect st pures p @ collect st pures q
    | A.Exists (x, p) ->
        let y = fresh ~hint:x st in
        collect st pures (A.subst1 x (T.var y) p)
    | A.Stabilize p | A.Later p | A.Persistently p -> collect st pures p
    | a -> fail "inhale: unsupported assertion %a" A.pp a
  in
  collect st [] a
  |> List.map (fun (st, pures) ->
         List.fold_left (fun st phi -> add_pure st (resolve st phi)) st pures)
  |> List.filter feasible

(** Non-branching inhale; fails on disjunctions. *)
let inhale (st : t) (a : A.t) : t =
  match inhale_cases st a with
  | [ st ] -> st
  | [] -> add_pure st T.fls
  | sts ->
      ignore sts;
      fail "inhale: disjunctive assertion needs inhale_cases: %a" A.pp a

(* ------------------------------------------------------------------ *)
(* Consume *)

let take st pred =
  match Listx.find_remove pred st.chunks with
  | Some (c, rest) ->
      st.stats.Vstats.chunk_matches <- st.stats.Vstats.chunk_matches + 1;
      Some (c, { st with chunks = rest })
  | None -> None

(** Resolve the heap reads of every pure part of [a] against the
    current state — used as a pre-pass by [consume], so that an
    assertion's pure parts can read locations whose chunks the same
    assertion is about to consume. *)
let rec resolve_assertion st (a : A.t) : A.t =
  match a with
  | A.Pure phi -> A.Pure (resolve st phi)
  | A.Emp | A.Points_to _ | A.Ghost _ | A.Pred _ -> a
  | A.Sep (p, q) -> A.Sep (resolve_assertion st p, resolve_assertion st q)
  | A.And (p, q) -> A.And (resolve_assertion st p, resolve_assertion st q)
  | A.Or (p, q) -> A.Or (resolve_assertion st p, resolve_assertion st q)
  | A.Exists (x, p) -> A.Exists (x, resolve_assertion st p)
  | A.Forall (x, p) -> A.Forall (x, resolve_assertion st p)
  | A.Stabilize p -> A.Stabilize (resolve_assertion st p)
  | A.Later p -> A.Later (resolve_assertion st p)
  | A.Persistently p -> A.Persistently (resolve_assertion st p)
  | A.Wand _ | A.Upd _ | A.Wp _ -> a

(** Coalesce fractional chunks at [loc]: two chunks with provably
    equal locations also have equal values (their composition is
    valid), so they merge into one with the summed fraction. *)
let coalesce (st : t) (loc : T.t) : t =
  let mine, others =
    List.partition
      (function
        | A.Points_to { loc = l'; _ } -> same_loc st loc l' | _ -> false)
      st.chunks
  in
  match mine with
  | [] | [ _ ] -> st
  | A.Points_to first :: rest ->
      let frac, value =
        List.fold_left
          (fun (q, v) c ->
            match c with
            | A.Points_to { frac = q'; value = v'; _ } ->
                ignore v';
                (Q.add q q', v)
            | _ -> (q, v))
          (first.frac, first.value) rest
      in
      let st' = { st with chunks = A.points_to ~frac first.loc value :: others } in
      (* record the agreement facts *)
      List.fold_left
        (fun st c ->
          match c with
          | A.Points_to { value = v'; _ } -> add_pure st (T.eq value v')
          | _ -> st)
        st' rest
  | _ -> st

(** Composition-validity facts, recorded after opening the named
    invariants on top of already-owned chunks: two points-to chunks
    whose fractions sum above one cannot sit at the same location
    (fractional composition is valid), so the disequality is a fact.
    This prunes the impossible aliasing cases an open would otherwise
    introduce — e.g. a state that owns a full cell the invariant also
    governs in the current disjunct. *)
let compat_facts (st : t) : t =
  let pts =
    List.filter_map
      (function
        | A.Points_to { loc; frac; _ } -> Some (loc, frac)
        | _ -> None)
      st.chunks
  in
  let rec go st = function
    | [] -> st
    | (l1, q1) :: rest ->
        let st =
          List.fold_left
            (fun st (l2, q2) ->
              (* syntactically equal locations make the disequality
                 unsatisfiable — exactly right: such a state is
                 contradictory and gets pruned by [feasible] *)
              if Q.gt (Q.add q1 q2) Q.one then add_pure st (T.neq l1 l2)
              else st)
            st rest
        in
        go st rest
  in
  go st pts

(** Remove an assertion from the state, checking pure obligations.
    Mirrors {!Baselogic.Kernel.entail_auto} without building
    theorems. *)
let rec consume_resolved (st : t) (a : A.t) : t =
  let consume = consume_resolved in
  match a with
  | A.Emp -> st
  | A.Pure phi ->
      let phi = resolve st phi in
      if entails st phi then st
      else fail "cannot prove %a" T.pp phi
  | A.Sep (p, q) | A.And (p, q) -> consume (consume st p) q
  (* [And] with separate chunk consumption is sound only for the
     idempotent assertions we emit; specs use [Sep]. *)
  | A.Points_to { loc; frac; value } -> (
      let st = coalesce st loc in
      match
        take st (function
          | A.Points_to { loc = l'; frac = q'; _ } ->
              Q.geq q' frac && same_loc st loc l'
          | _ -> false)
      with
      | Some (A.Points_to { loc = l'; frac = q'; value = v' }, st') ->
          if not (entails_eq st value v') then
            fail "points-to %a: cannot prove value %a = %a" T.pp loc T.pp
              value T.pp v';
          if Q.gt q' frac then
            add_chunk st' (A.points_to ~frac:(Q.sub q' frac) l' v')
          else st'
      | _ -> fail "no points-to chunk for %a" T.pp loc)
  | A.Ghost (g, gv) -> (
      match
        take st (function
          | A.Ghost (g', gv') ->
              String.equal g g'
              && (match GV.sub_condition ~goal:gv ~chunk:gv' with
                 | Some cond -> entails st cond
                 | None -> false)
          | _ -> false)
      with
      | Some (_, st') -> st'
      | None -> fail "no ghost chunk %s matching %a" g GV.pp gv)
  | A.Pred (p, args) -> (
      match
        take st (function
          | A.Pred (p', args') ->
              String.equal p p'
              && List.length args = List.length args'
              && List.for_all2 (entails_eq st) args args'
          | _ -> false)
      with
      | Some (_, st') -> st'
      | None -> fail "no predicate chunk %s" p)
  | A.Exists (x, body) -> (
      let try_witness t =
        match consume st (A.subst1 x t body) with
        | st' -> Some st'
        | exception Verification_error _ -> None
      in
      match List.find_map try_witness (witnesses st x body) with
      | Some st' -> st'
      | None -> fail "no witness for ∃%s. %a" x A.pp body)
  | A.Or (A.Pure phi, rhs) ->
      (* Classical: if φ is not provable, prove the right side under
         ¬φ (and the converse preference when φ holds). *)
      let phi = resolve st phi in
      if entails st phi then st
      else consume (add_pure st (T.not_ phi)) rhs
  | A.Or (lhs, rhs) -> (
      match consume st lhs with
      | st' -> st'
      | exception Verification_error _ -> consume st rhs)
  | A.Stabilize p ->
      if A.stable p then consume st p
      else fail "assertion under ⌊·⌋ is not stable: %a" A.pp p
  | A.Later p | A.Persistently p -> consume st p
  | a -> fail "consume: unsupported assertion %a" A.pp a

(** Witness candidates for an existential goal, mirroring the
    kernel's inference: unify chunk-shaped conjuncts, try defining
    equations. *)
and witnesses st x body : T.t list =
  (* Look through nested existentials: inner binders are opaque, but
     chunk-shaped conjuncts under them still drive unification. *)
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
          if same_loc st loc l' then cands := v' :: !cands
        end
        else if is_x loc then
          if entails_eq st value v' then cands := l' :: !cands
    | ( A.Ghost (g, GV.Auth_nat { auth = Some a; _ }),
        A.Ghost (g', GV.Auth_nat { auth = Some n'; _ }) )
      when is_x a && String.equal g g' ->
        cands := n' :: !cands
    | A.Ghost (g, GV.Agree a), A.Ghost (g', GV.Agree v')
      when is_x a && String.equal g g' ->
        cands := v' :: !cands
    | A.Pred (p, args), A.Pred (p', args')
      when String.equal p p' && List.length args = List.length args' ->
        List.iter2
          (fun a a' -> if is_x a then cands := a' :: !cands)
          args args'
    | _ -> ()
  in
  List.iter (fun pat -> List.iter (consider pat) st.chunks) (A.conjuncts body);
  List.iter
    (fun pat ->
      match pat with
      | A.Pure t -> (
          match T.view t with
          | T.Eq (lhs, rhs) when is_x lhs -> cands := resolve st rhs :: !cands
          | T.Eq (lhs, rhs) when is_x rhs -> cands := resolve st lhs :: !cands
          | _ -> ())
      | _ -> ())
    (A.conjuncts body);
  Listx.take 8 (List.rev !cands)

(** Public entry: resolve heap reads against the pre-consume state,
    then match and remove. *)
let consume (st : t) (a : A.t) : t = consume_resolved st (resolve_assertion st a)

(* ------------------------------------------------------------------ *)
(* Havoc (for loops) *)

(** Keep only the pure facts; used at loop heads after consuming the
    invariant — the fresh loop state is whatever the invariant
    provides. *)
let pures_only st = { st with chunks = [] }

let pp ppf st =
  Fmt.pf ppf "@[<v>pures: %a@ chunks: %a@]"
    (Fmt.list ~sep:Fmt.comma T.pp) st.pures
    (Fmt.list ~sep:Fmt.comma A.pp) st.chunks
