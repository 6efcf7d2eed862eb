(** Solver statistics.

    Counters used to live in one process-global mutable record, which
    is unsound once several domains discharge VCs concurrently (the
    parallel engine in [lib/engine]). They are now {e domain-local}:
    every domain accumulates into its own instance, obtained with
    {!current}; the engine snapshots each worker domain's instance
    after the queue drains and merges them with {!sum} into one report.

    Sequential callers keep the old ergonomics: [reset] and [snapshot]
    operate on the calling domain's instance, so a single-domain
    program behaves exactly as before. *)

type t = {
  mutable queries : int;
      (** one-shot [Solver.check_sat] calls; on the verifier path these
          are exactly the session fallbacks *)
  mutable sat_conflicts : int;
  mutable sat_decisions : int;
  mutable sat_propagations : int;
  mutable theory_checks : int;  (** candidate models checked *)
  mutable lia_checks : int;
      (** integer feasibility checks ([Simplex.check_int] calls) plus
          cross-theory equality probes; the [check_rational] calls
          inside branch-and-bound are not counted *)
  mutable simplex_pivots : int;  (** pivots in [Simplex.check_rational] *)
  mutable lia_eq_witnessed : int;
      (** equality probes settled by the simplex's live feasible
          assignment instead of a check *)
  mutable euf_checks : int;  (** congruence-closure invocations *)
  mutable blocking_clauses : int;
  mutable eq_propagations : int;  (** cross-theory equalities *)
  mutable combination_timeouts : int;
      (** combination-loop fuel or eq-budget exhaustions — each one is a
          potentially incomplete answer that used to be visible only
          under SMT_DEBUG *)
  mutable session_checks : int;  (** incremental [Session.check_goal] calls *)
  mutable session_fallbacks : int;
      (** session checks outside the convex-literal fragment (or hit by
          an injected session fault), re-solved through the full
          one-shot pipeline; the seven [fallback_*] counters below split
          it by reason and sum to it *)
  mutable fallback_fault : int;  (** an injected session fault fired *)
  mutable fallback_nonlit_goal : int;
      (** the negated goal has no cases: boolean structure the theory
          cannot take, or more cases than the session probes *)
  mutable fallback_untrusted_ctx : int;
      (** a feasibility check (goal [False]) on a context whose model
          the session cannot trust *)
  mutable fallback_held_back : int;
      (** a theory probe said [Sat], untrusted because a hypothesis
          with other than one case (a disjunction, an iff) is held back *)
  mutable fallback_ctx_neq : int;
      (** a theory probe said [Sat], untrusted because an integer
          disequality in the context was left unsplit (splitting it
          would exceed the session's branch bound) *)
  mutable fallback_goal_neqs : int;
      (** the negated goal's cases and disequalities make more branches
          than the session probes *)
  mutable fallback_inconclusive : int;
      (** a probe branch was unpurifiable or ran out of theory fuel *)
  mutable session_split_probes : int;
      (** theory probes a session check spent on branches beyond its
          first: goal cases and strict sides of disequalities *)
  mutable lemmas_seeded : int;
      (** stored theory-conflict cores a fallback added as clauses
          before its first SAT call (the session's lemma store) *)
  mutable learnts_deleted : int;
      (** learnt clauses dropped by the SAT core's database reduction *)
  mutable heap_decisions : int;
      (** branch selections served by the VSIDS activity heap, counting
          stale (already-assigned) entries that were popped and skipped *)
  mutable fuel_sat_conflicts : int;
      (** CDCL searches stopped by the [max_conflicts] knob *)
  mutable fuel_lazy_rounds : int;
      (** lazy-loop exits via the [max_rounds] knob *)
  mutable fuel_simplex : int;
      (** branch-and-bound exits via the simplex [fuel] knob *)
  mutable fuel_combination : int;
      (** Nelson–Oppen combination-loop fuel exhaustions *)
  mutable fuel_eq_budget : int;
      (** cross-theory equality probes starved by [eq_budget] *)
  mutable deadline_stops : int;
      (** solver exits forced by a wall-clock deadline / cancellation *)
  mutable solve_ms : float;
      (** wall-clock time inside [check_sat], i.e. the one-shot
          fallback layer (incremental session checks are not timed) *)
}

let create () =
  {
    queries = 0;
    sat_conflicts = 0;
    sat_decisions = 0;
    sat_propagations = 0;
    theory_checks = 0;
    lia_checks = 0;
    simplex_pivots = 0;
    lia_eq_witnessed = 0;
    euf_checks = 0;
    blocking_clauses = 0;
    eq_propagations = 0;
    combination_timeouts = 0;
    session_checks = 0;
    session_fallbacks = 0;
    fallback_fault = 0;
    fallback_nonlit_goal = 0;
    fallback_untrusted_ctx = 0;
    fallback_held_back = 0;
    fallback_ctx_neq = 0;
    fallback_goal_neqs = 0;
    fallback_inconclusive = 0;
    session_split_probes = 0;
    lemmas_seeded = 0;
    learnts_deleted = 0;
    heap_decisions = 0;
    fuel_sat_conflicts = 0;
    fuel_lazy_rounds = 0;
    fuel_simplex = 0;
    fuel_combination = 0;
    fuel_eq_budget = 0;
    deadline_stops = 0;
    solve_ms = 0.0;
  }

(** The fallback-reason counters, in the order the session tests the
    reasons. Each fallback counts under exactly one, so they sum to
    [session_fallbacks]. *)
let fallback_reasons : t Stdx.Counters.field list =
  Stdx.Counters.
    [
      Int ("fallback_fault", (fun s -> s.fallback_fault),
           fun s v -> s.fallback_fault <- v);
      Int ("fallback_nonlit_goal", (fun s -> s.fallback_nonlit_goal),
           fun s v -> s.fallback_nonlit_goal <- v);
      Int ("fallback_untrusted_ctx", (fun s -> s.fallback_untrusted_ctx),
           fun s v -> s.fallback_untrusted_ctx <- v);
      Int ("fallback_held_back", (fun s -> s.fallback_held_back),
           fun s v -> s.fallback_held_back <- v);
      Int ("fallback_ctx_neq", (fun s -> s.fallback_ctx_neq),
           fun s v -> s.fallback_ctx_neq <- v);
      Int ("fallback_goal_neqs", (fun s -> s.fallback_goal_neqs),
           fun s v -> s.fallback_goal_neqs <- v);
      Int ("fallback_inconclusive", (fun s -> s.fallback_inconclusive),
           fun s v -> s.fallback_inconclusive <- v);
    ]

(** Every counter, once: reset, [diff], [sum], [pp] and the report
    JSON are derived from this list. *)
let fields : t Stdx.Counters.field list =
  Stdx.Counters.(
    [
      Int ("queries", (fun s -> s.queries), fun s v -> s.queries <- v);
      Int ("sat_conflicts", (fun s -> s.sat_conflicts),
           fun s v -> s.sat_conflicts <- v);
      Int ("sat_decisions", (fun s -> s.sat_decisions),
           fun s v -> s.sat_decisions <- v);
      Int ("sat_propagations", (fun s -> s.sat_propagations),
           fun s v -> s.sat_propagations <- v);
      Int ("theory_checks", (fun s -> s.theory_checks),
           fun s v -> s.theory_checks <- v);
      Int ("lia_checks", (fun s -> s.lia_checks), fun s v -> s.lia_checks <- v);
      Int ("simplex_pivots", (fun s -> s.simplex_pivots), fun s v -> s.simplex_pivots <- v);
      Int ("lia_eq_witnessed", (fun s -> s.lia_eq_witnessed), fun s v -> s.lia_eq_witnessed <- v);
      Int ("euf_checks", (fun s -> s.euf_checks), fun s v -> s.euf_checks <- v);
      Int ("blocking_clauses", (fun s -> s.blocking_clauses),
           fun s v -> s.blocking_clauses <- v);
      Int ("eq_propagations", (fun s -> s.eq_propagations),
           fun s v -> s.eq_propagations <- v);
      Int ("combination_timeouts", (fun s -> s.combination_timeouts),
           fun s v -> s.combination_timeouts <- v);
      Int ("session_checks", (fun s -> s.session_checks),
           fun s v -> s.session_checks <- v);
      Int ("session_fallbacks", (fun s -> s.session_fallbacks),
           fun s v -> s.session_fallbacks <- v);
    ]
    @ fallback_reasons
    @ [
      Int ("session_split_probes", (fun s -> s.session_split_probes),
           fun s v -> s.session_split_probes <- v);
      Int ("lemmas_seeded", (fun s -> s.lemmas_seeded),
           fun s v -> s.lemmas_seeded <- v);
      Int ("learnts_deleted", (fun s -> s.learnts_deleted),
           fun s v -> s.learnts_deleted <- v);
      Int ("heap_decisions", (fun s -> s.heap_decisions),
           fun s v -> s.heap_decisions <- v);
      Int ("fuel_sat_conflicts", (fun s -> s.fuel_sat_conflicts),
           fun s v -> s.fuel_sat_conflicts <- v);
      Int ("fuel_lazy_rounds", (fun s -> s.fuel_lazy_rounds),
           fun s v -> s.fuel_lazy_rounds <- v);
      Int ("fuel_simplex", (fun s -> s.fuel_simplex),
           fun s v -> s.fuel_simplex <- v);
      Int ("fuel_combination", (fun s -> s.fuel_combination),
           fun s v -> s.fuel_combination <- v);
      Int ("fuel_eq_budget", (fun s -> s.fuel_eq_budget),
           fun s v -> s.fuel_eq_budget <- v);
      Int ("deadline_stops", (fun s -> s.deadline_stops),
           fun s v -> s.deadline_stops <- v);
      Float ("solve_ms", (fun s -> s.solve_ms), fun s v -> s.solve_ms <- v);
    ])

let key : t Domain.DLS.key = Domain.DLS.new_key create

(** The calling domain's statistics instance. *)
let current () = Domain.DLS.get key

let reset () = Stdx.Counters.reset fields (current ())

let copy s = { s with queries = s.queries }

(** A copy of the calling domain's instance. *)
let snapshot () = copy (current ())

let diff a b =
  Stdx.Counters.combine fields ~int:( - ) ~float:( -. ) a b (create ())

(** Pointwise sum; used by the engine to merge per-domain snapshots. *)
let sum a b =
  Stdx.Counters.combine fields ~int:( + ) ~float:( +. ) a b (create ())

let pp ppf s =
  (* The term pool is a process-global gauge (the hash-consing tables
     are shared by every domain), so it is read live rather than stored
     in the per-domain counter record. *)
  let ps = Term.pool_stats () in
  let lookups = ps.Term.pool_hits + ps.Term.pool_misses in
  let hit_rate =
    if lookups = 0 then 0.0
    else 100.0 *. float_of_int ps.Term.pool_hits /. float_of_int lookups
  in
  Fmt.pf ppf "%a@ terms: pool=%d hit-rate=%.1f%%" (Stdx.Counters.pp fields) s
    ps.Term.pool_size hit_rate
