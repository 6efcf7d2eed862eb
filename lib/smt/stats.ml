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
  mutable lia_checks : int;  (** simplex invocations *)
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
          one-shot pipeline *)
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
    euf_checks = 0;
    blocking_clauses = 0;
    eq_propagations = 0;
    combination_timeouts = 0;
    session_checks = 0;
    session_fallbacks = 0;
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

let key : t Domain.DLS.key = Domain.DLS.new_key create

(** The calling domain's statistics instance. *)
let current () = Domain.DLS.get key

let reset () =
  let s = current () in
  s.queries <- 0;
  s.sat_conflicts <- 0;
  s.sat_decisions <- 0;
  s.sat_propagations <- 0;
  s.theory_checks <- 0;
  s.lia_checks <- 0;
  s.euf_checks <- 0;
  s.blocking_clauses <- 0;
  s.eq_propagations <- 0;
  s.combination_timeouts <- 0;
  s.session_checks <- 0;
  s.session_fallbacks <- 0;
  s.learnts_deleted <- 0;
  s.heap_decisions <- 0;
  s.fuel_sat_conflicts <- 0;
  s.fuel_lazy_rounds <- 0;
  s.fuel_simplex <- 0;
  s.fuel_combination <- 0;
  s.fuel_eq_budget <- 0;
  s.deadline_stops <- 0;
  s.solve_ms <- 0.0

let copy s = { s with queries = s.queries }

(** A copy of the calling domain's instance. *)
let snapshot () = copy (current ())

let diff a b =
  {
    queries = a.queries - b.queries;
    sat_conflicts = a.sat_conflicts - b.sat_conflicts;
    sat_decisions = a.sat_decisions - b.sat_decisions;
    sat_propagations = a.sat_propagations - b.sat_propagations;
    theory_checks = a.theory_checks - b.theory_checks;
    lia_checks = a.lia_checks - b.lia_checks;
    euf_checks = a.euf_checks - b.euf_checks;
    blocking_clauses = a.blocking_clauses - b.blocking_clauses;
    eq_propagations = a.eq_propagations - b.eq_propagations;
    combination_timeouts = a.combination_timeouts - b.combination_timeouts;
    session_checks = a.session_checks - b.session_checks;
    session_fallbacks = a.session_fallbacks - b.session_fallbacks;
    learnts_deleted = a.learnts_deleted - b.learnts_deleted;
    heap_decisions = a.heap_decisions - b.heap_decisions;
    fuel_sat_conflicts = a.fuel_sat_conflicts - b.fuel_sat_conflicts;
    fuel_lazy_rounds = a.fuel_lazy_rounds - b.fuel_lazy_rounds;
    fuel_simplex = a.fuel_simplex - b.fuel_simplex;
    fuel_combination = a.fuel_combination - b.fuel_combination;
    fuel_eq_budget = a.fuel_eq_budget - b.fuel_eq_budget;
    deadline_stops = a.deadline_stops - b.deadline_stops;
    solve_ms = a.solve_ms -. b.solve_ms;
  }

(** Pointwise sum; used by the engine to merge per-domain snapshots. *)
let sum a b =
  {
    queries = a.queries + b.queries;
    sat_conflicts = a.sat_conflicts + b.sat_conflicts;
    sat_decisions = a.sat_decisions + b.sat_decisions;
    sat_propagations = a.sat_propagations + b.sat_propagations;
    theory_checks = a.theory_checks + b.theory_checks;
    lia_checks = a.lia_checks + b.lia_checks;
    euf_checks = a.euf_checks + b.euf_checks;
    blocking_clauses = a.blocking_clauses + b.blocking_clauses;
    eq_propagations = a.eq_propagations + b.eq_propagations;
    combination_timeouts = a.combination_timeouts + b.combination_timeouts;
    session_checks = a.session_checks + b.session_checks;
    session_fallbacks = a.session_fallbacks + b.session_fallbacks;
    learnts_deleted = a.learnts_deleted + b.learnts_deleted;
    heap_decisions = a.heap_decisions + b.heap_decisions;
    fuel_sat_conflicts = a.fuel_sat_conflicts + b.fuel_sat_conflicts;
    fuel_lazy_rounds = a.fuel_lazy_rounds + b.fuel_lazy_rounds;
    fuel_simplex = a.fuel_simplex + b.fuel_simplex;
    fuel_combination = a.fuel_combination + b.fuel_combination;
    fuel_eq_budget = a.fuel_eq_budget + b.fuel_eq_budget;
    deadline_stops = a.deadline_stops + b.deadline_stops;
    solve_ms = a.solve_ms +. b.solve_ms;
  }

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
  Fmt.pf ppf
    "queries=%d conflicts=%d decisions=%d theory=%d lia=%d euf=%d blocked=%d \
     eqprop=%d timeouts=%d session=%d/%d solve=%.1fms@ \
     sat-db: learnts_deleted=%d heap_decisions=%d@ \
     terms: pool=%d hit-rate=%.1f%%@ \
     fuel-out: sat_conflicts=%d lazy_rounds=%d simplex=%d combination=%d \
     eq_budget=%d deadline-stops=%d"
    s.queries s.sat_conflicts s.sat_decisions s.theory_checks s.lia_checks
    s.euf_checks s.blocking_clauses s.eq_propagations s.combination_timeouts
    s.session_checks s.session_fallbacks s.solve_ms s.learnts_deleted
    s.heap_decisions ps.Term.pool_size hit_rate s.fuel_sat_conflicts
    s.fuel_lazy_rounds s.fuel_simplex s.fuel_combination s.fuel_eq_budget
    s.deadline_stops
