(** Resilience tests: deadlines and cooperative cancellation, the
    budget/fuel taxonomy, graceful degradation (retries, session
    fallback, cache-corruption recovery), and chaos testing under the
    seeded fault-injection harness.

    The central soundness property, checked both directly and under
    randomized fault schedules: faults may *degrade* an outcome to
    Timeout / Resource_out / Crashed, but they can never flip a
    verdict — a Failed program never becomes Verified and vice
    versa. *)

module T = Smt.Term
module A = Baselogic.Assertion
module V = Verifier.Exec
module G = Suite.Generators
module Pr = Suite.Programs
module E = Engine
module B = Stdx.Budget
module F = Stdx.Fault

let outcome : V.outcome Alcotest.testable =
  Alcotest.testable (fun ppf o -> V.pp_outcome ppf o) ( = )

let proc_results = Alcotest.(list (pair string outcome))

(* A procedure whose single proof obligation is a pigeonhole instance:
   PHP(n) is unsat, so the precondition is contradictory and the proc
   is Verified — but only after the solver grinds through the
   exponential refutation. This is the deterministic "diverging VC"
   used to exercise deadlines. *)
let pigeonhole_proc n : V.program * V.proc =
  let proc =
    {
      V.pname = Printf.sprintf "php%d" n;
      params = [];
      requires = A.Pure (T.and_ (G.pigeonhole n));
      ensures = A.Pure T.fls;
      body = Heaplang.Ast.Val (Heaplang.Ast.Int 0);
      invariants = [];
      ghost = [];
    }
  in
  ({ V.procs = [ proc ]; preds = Stdx.Smap.empty; invs = [] }, proc)

let with_faults ?seed probs f =
  F.configure ?seed probs;
  Fun.protect ~finally:F.clear f

let engine_outcomes config progs =
  let report = E.verify_programs ~config progs in
  ( List.map (fun (g : E.group_result) -> (g.E.group, g.E.outcomes)) report.E.groups,
    report.E.stats )

let suite_progs entries =
  List.map (fun (e : Pr.entry) -> (e.name, e.prog)) entries

(* ------------------------------------------------------------------ *)
(* Budgets: deadlines, cancellation, fuel *)

let test_deadline_stops_divergence () =
  let t0 = Unix.gettimeofday () in
  (match
     B.with_budget
       (B.create ~timeout_ms:5.0 ())
       (fun () -> Smt.Solver.check_sat (G.pigeonhole 8))
   with
  | _ -> Alcotest.fail "PHP(8) under a 5ms deadline must not finish"
  | exception B.Exhausted (B.Deadline _) -> ()
  | exception B.Exhausted r ->
      Alcotest.failf "wrong exhaustion reason: %s" (B.reason_to_string r));
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "stopped promptly (%.0fms)" elapsed_ms)
    true (elapsed_ms < 2_000.0)

let test_cancellation () =
  let b = B.create () in
  B.cancel b;
  match B.with_budget b (fun () -> B.poll ()) with
  | () -> Alcotest.fail "poll under a cancelled budget must raise"
  | exception B.Exhausted B.Cancelled -> ()
  | exception B.Exhausted r ->
      Alcotest.failf "wrong exhaustion reason: %s" (B.reason_to_string r)

let test_parent_cancellation () =
  let parent = B.create () in
  let child = B.create ~parent () in
  B.cancel parent;
  Alcotest.(check bool)
    "child sees parent's cancellation" true
    (match B.check_now child with
    | () -> false
    | exception B.Exhausted B.Cancelled -> true)

let test_budget_child_never_outlives_parent () =
  (* A child may ask for a deadline far beyond its parent's; the chain
     makes the parent's earlier deadline win — per-job budgets can
     never escape a per-run limit. *)
  let parent = B.create ~timeout_ms:5.0 () in
  let child = B.create ~parent ~timeout_ms:3_600_000.0 () in
  Unix.sleepf 0.02;
  (match B.check_now child with
  | () -> Alcotest.fail "child outlived its exhausted parent"
  | exception B.Exhausted (B.Deadline ms) ->
      Alcotest.(check (float 0.001)) "the parent's limit is reported" 5.0 ms
  | exception B.Exhausted r ->
      Alcotest.failf "wrong exhaustion reason: %s" (B.reason_to_string r));
  (* And the converse composes too: a tight child under a roomy parent
     exhausts on its own deadline. *)
  let roomy = B.create ~timeout_ms:3_600_000.0 () in
  let tight = B.create ~parent:roomy ~timeout_ms:5.0 () in
  Unix.sleepf 0.02;
  match B.check_now tight with
  | () -> Alcotest.fail "tight child under roomy parent must exhaust"
  | exception B.Exhausted (B.Deadline ms) ->
      Alcotest.(check (float 0.001)) "the child's limit is reported" 5.0 ms
  | exception B.Exhausted r ->
      Alcotest.failf "wrong exhaustion reason: %s" (B.reason_to_string r)

let test_budget_zero_and_negative () =
  (* Degenerate deadlines must exhaust immediately and cleanly — a
     zero or negative budget is "no time at all", never "no limit". *)
  List.iter
    (fun ms ->
      let b = B.create ~timeout_ms:ms () in
      Unix.sleepf 0.002;
      match B.check_now b with
      | () -> Alcotest.failf "%gms budget never exhausted" ms
      | exception B.Exhausted (B.Deadline _) -> ()
      | exception B.Exhausted r ->
          Alcotest.failf "wrong exhaustion reason: %s" (B.reason_to_string r))
    [ 0.0; -1.0; -1_000.0 ];
  (* The cheap poll path reaches the same verdict within one clock
     window (mask + 1 calls). *)
  let b = B.create ~timeout_ms:0.0 () in
  Unix.sleepf 0.002;
  match
    B.with_budget b (fun () ->
        for _ = 0 to 2 * (255 + 1) do
          B.poll ()
        done)
  with
  | () -> Alcotest.fail "cheap polls must hit the dead deadline"
  | exception B.Exhausted (B.Deadline _) -> ()

let test_fuel_simplex () =
  Smt.Stats.reset ();
  let s = Smt.Simplex.create () in
  (match Smt.Simplex.check_int ~fuel:0 s with
  | Smt.Simplex.IResource_out -> ()
  | Smt.Simplex.IModel _ -> Alcotest.fail "zero fuel must not produce a model"
  | Smt.Simplex.IUnsat -> Alcotest.fail "zero fuel must not refute");
  Alcotest.(check bool)
    "fuel_simplex counted" true
    ((Smt.Stats.snapshot ()).Smt.Stats.fuel_simplex > 0)

let test_fuel_sat_conflicts () =
  Smt.Stats.reset ();
  let s = Smt.Sat.create () in
  let a = Smt.Sat.new_var s and b = Smt.Sat.new_var s in
  let pos v = Smt.Sat.lit_of_var v
  and neg v = Smt.Sat.lit_of_var ~neg:true v in
  ignore (Smt.Sat.add_clause s [ pos a; pos b ]);
  ignore (Smt.Sat.add_clause s [ neg a; pos b ]);
  ignore (Smt.Sat.add_clause s [ pos a; neg b ]);
  ignore (Smt.Sat.add_clause s [ neg a; neg b ]);
  (match Smt.Sat.solve ~max_conflicts:0 s with
  | Smt.Sat.Resource_out -> ()
  | Smt.Sat.Unsat -> Alcotest.fail "zero conflicts allowed must not refute"
  | Smt.Sat.Sat | Smt.Sat.Unknown -> Alcotest.fail "unsat instance reported sat");
  Alcotest.(check bool)
    "fuel_sat_conflicts counted" true
    ((Smt.Stats.snapshot ()).Smt.Stats.fuel_sat_conflicts > 0)

(* ------------------------------------------------------------------ *)
(* Jobs: timeout, escalated retry *)

let test_job_timeout () =
  let prog, proc = pigeonhole_proc 8 in
  let job = List.hd (E.Job.of_program ~group:"php" prog) in
  ignore proc;
  let r = E.Job.run ~timeout_ms:0.02 job in
  match r.E.Job.outcome with
  | V.Timeout _ -> Alcotest.(check int) "single attempt" 1 r.E.Job.attempts
  | o -> Alcotest.failf "expected Timeout, got %a" V.pp_outcome o

let test_job_retry_escalates_to_success () =
  let prog, _ = pigeonhole_proc 5 in
  let job = List.hd (E.Job.of_program ~group:"php" prog) in
  let r = E.Job.run ~timeout_ms:0.02 ~retries:8 job in
  (match r.E.Job.outcome with
  | V.Verified -> ()
  | o -> Alcotest.failf "expected Verified after escalation, got %a" V.pp_outcome o);
  Alcotest.(check bool)
    (Printf.sprintf "needed retries (attempts=%d)" r.E.Job.attempts)
    true
    (r.E.Job.attempts > 1)

(* An integer refusal is deterministic: no budget moves an integer
   back into range, so each out-of-range procedure runs exactly once
   whatever [retries] allows, and is counted once. *)
let test_job_int_refusal_not_retried () =
  let prog, _ =
    Verifier.Elab.program_of_string ~file:"out_of_range.hl"
      Int_ref.out_of_range_source
  in
  List.iter
    (fun job ->
      let name = job.E.Job.proc.V.pname in
      let r = E.Job.run ~timeout_ms:1000.0 ~retries:3 job in
      (match r.E.Job.outcome with
      | V.Resource_out m when String.equal m V.int_out_of_range -> ()
      | o -> Alcotest.failf "%s: expected the integer refusal, got %a" name
               V.pp_outcome o);
      Alcotest.(check int) (name ^ ": one attempt") 1 r.E.Job.attempts;
      Alcotest.(check int) (name ^ ": counted once") 1
        r.E.Job.vstats.Verifier.Vstats.int_out_of_range)
    (E.Job.of_program ~group:"out_of_range" prog)

(* A diverging job at -j4 times out inside its own deadline while its
   sibling jobs verify, unaffected. *)
let test_engine_timeout_isolates_siblings () =
  let slow_prog, _ = pigeonhole_proc 8 in
  let siblings =
    suite_progs
      (List.filteri (fun i (e : Pr.entry) -> i < 3 && not e.Pr.expect_fail)
         Pr.positive)
  in
  let groups, stats =
    engine_outcomes
      {
        E.default_config with
        E.domains = 4;
        timeout_ms = Some 40.0;
      }
      (("slow", slow_prog) :: siblings)
  in
  List.iter
    (fun (name, outs) ->
      if String.equal name "slow" then
        List.iter
          (fun (_, o) ->
            match o with
            | V.Timeout _ -> ()
            | o -> Alcotest.failf "slow proc: expected Timeout, got %a" V.pp_outcome o)
          outs
      else
        List.iter
          (fun (pname, o) ->
            Alcotest.check outcome
              (Printf.sprintf "%s.%s unaffected" name pname)
              V.Verified o)
          outs)
    groups;
  Alcotest.(check int) "one timeout accounted" 1 stats.E.timeouts

(* ------------------------------------------------------------------ *)
(* Verdict cache: corruption is absorbed as a miss *)

let test_cache_corruption_is_a_miss () =
  let key = "prog" in
  let verdicts : E.Vc_cache.verdicts =
    {
      outcomes = [ ("p", V.Verified); ("q", V.Failed "bad") ];
      findings = "warning[DA024] f.hl:1:1: unused\n";
    }
  in
  let check_corruption mode =
    let cache = E.Vc_cache.create () in
    E.Vc_cache.store_verdicts cache key verdicts;
    Alcotest.(check bool) "entry stored" true (E.Vc_cache.size cache = 1);
    Alcotest.(check bool)
      "corrupt_entry found its target" true
      (E.Vc_cache.corrupt_entry ~mode cache key);
    Alcotest.(check bool)
      "corrupt entry never served" true
      (E.Vc_cache.lookup_verdicts cache key = None);
    Alcotest.(check int) "corruption detected" 1 (E.Vc_cache.corrupt cache);
    Alcotest.(check int) "counted as a miss" 1 (E.Vc_cache.misses cache);
    (* the re-verified result replaces the corrupt entry: then a hit *)
    E.Vc_cache.store_verdicts cache key verdicts;
    Alcotest.(check bool)
      "repaired entry served" true
      (E.Vc_cache.lookup_verdicts cache key = Some (verdicts, `Memory));
    Alcotest.(check int) "repaired entry hits" 1 (E.Vc_cache.hits cache)
  in
  check_corruption `Flip;
  check_corruption `Truncate

(* ------------------------------------------------------------------ *)
(* Fault injection: degradation without verdict flips *)

let clean_reference entries =
  engine_outcomes
    { E.default_config with E.domains = 1 }
    (suite_progs entries)

let test_session_faults_fall_back () =
  let entries = List.filteri (fun i _ -> i < 4) Pr.positive in
  let clean, _ = clean_reference entries in
  let faulted, stats =
    with_faults ~seed:42 [ (F.Session, 1.0) ] (fun () ->
        engine_outcomes
          { E.default_config with E.domains = 1 }
          (suite_progs entries))
  in
  List.iter
    (fun (name, outs) ->
      Alcotest.check proc_results
        (name ^ " verdicts unchanged under session faults")
        outs
        (List.assoc name faulted))
    clean;
  Alcotest.(check bool)
    "fallbacks actually exercised" true
    (stats.E.smt.Smt.Stats.session_fallbacks > 0);
  (* A fault stands for lost session state: its fallback runs the bare
     one-shot pipeline, without the session's lemma store. *)
  Alcotest.(check int)
    "no lemmas seeded under session faults" 0
    stats.E.smt.Smt.Stats.lemmas_seeded

let test_cache_faults_keep_verdicts () =
  (* Drive the verdict cache the way the daemon does — answer from the
     cache, else verify and store — while every store is corrupted by
     the injected fault: every repeat lookup must detect it, re-verify,
     and agree with the uncached verdicts. *)
  let progs = suite_progs (List.filteri (fun i _ -> i < 4) Pr.all) in
  let clean, _ = engine_outcomes E.default_config progs in
  let cache = E.Vc_cache.create () in
  with_faults ~seed:7 [ (F.Cache, 1.0) ] (fun () ->
      List.iter
        (fun rep ->
          List.iter
            (fun (name, prog) ->
              let got =
                match E.Vc_cache.lookup_verdicts cache name with
                | Some (v, _) -> v.E.Vc_cache.outcomes
                | None ->
                    let groups, _ =
                      engine_outcomes E.default_config [ (name, prog) ]
                    in
                    let outs = List.assoc name groups in
                    E.Vc_cache.store_verdicts cache name
                      { outcomes = outs; findings = "" };
                    outs
              in
              Alcotest.check proc_results
                (Printf.sprintf "%s rep %d: verdicts unchanged" name rep)
                (List.assoc name clean) got)
            progs)
        [ 0; 1; 2 ]);
  Alcotest.(check bool)
    "corruption observed" true
    (E.Vc_cache.corrupt cache > 0);
  Alcotest.(check int) "no corrupt entry ever served" 0
    (E.Vc_cache.hits cache)

let test_pool_fault_crashes_not_fails () =
  let groups, stats =
    with_faults ~seed:3 [ (F.Pool, 1.0) ] (fun () ->
        engine_outcomes
          { E.default_config with E.domains = 4 }
          (suite_progs Pr.positive))
  in
  Alcotest.(check int)
    "pool survived: every group reported"
    (List.length Pr.positive) (List.length groups);
  List.iter
    (fun (name, outs) ->
      List.iter
        (fun (pname, o) ->
          match o with
          | V.Crashed i ->
              Alcotest.(check bool)
                (Printf.sprintf "%s.%s names the injected fault" name pname)
                true
                (String.length i.V.exn > 0)
          | o ->
              Alcotest.failf "%s.%s: expected Crashed, got %a" name pname
                V.pp_outcome o)
        outs)
    groups;
  Alcotest.(check int) "crashes accounted" stats.E.jobs stats.E.crashes

let test_deterministic_replay () =
  let entries = List.filteri (fun i _ -> i < 5) Pr.all in
  let run () =
    with_faults ~seed:1234 [ (F.Solver, 0.4); (F.Pool, 0.2) ] (fun () ->
        fst
          (engine_outcomes
             { E.default_config with E.domains = 1 }
             (suite_progs entries)))
  in
  let a = run () and b = run () in
  List.iter
    (fun (name, outs) ->
      Alcotest.check proc_results
        (name ^ " replays identically from the same seed")
        outs (List.assoc name b))
    a

(* ------------------------------------------------------------------ *)
(* Chaos: randomized fault schedules never flip a verdict *)

let chaos_entries =
  let positives = List.filteri (fun i _ -> i < 3) Pr.positive in
  let negatives = List.filter (fun (e : Pr.entry) -> e.Pr.expect_fail) Pr.all in
  positives @ List.filteri (fun i _ -> i < 2) negatives

let chaos_clean = lazy (fst (clean_reference chaos_entries))

let degraded = function
  | V.Timeout _ | V.Resource_out _ | V.Crashed _ -> true
  | V.Verified | V.Failed _ -> false

let chaos_schedule =
  QCheck.make
    ~print:(fun (seed, solver, pool, session, cache) ->
      Printf.sprintf "solver=%g,pool=%g,session=%g,cache=%g,seed=%d" solver
        pool session cache seed)
    QCheck.Gen.(
      let p = float_bound_inclusive 0.5 in
      tup5 (int_bound 1_000_000) p p (float_bound_inclusive 1.0)
        (float_bound_inclusive 1.0))

let chaos_no_verdict_flips =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"chaos-verdicts-never-flip" ~count:15
       chaos_schedule
       (fun (seed, solver, pool, session, cache) ->
         let clean = Lazy.force chaos_clean in
         let faulted, _ =
           with_faults ~seed
             [
               (F.Solver, solver);
               (F.Pool, pool);
               (F.Session, session);
               (F.Cache, cache);
             ]
             (fun () ->
               engine_outcomes
                 { E.default_config with E.domains = 2 }
                 (suite_progs chaos_entries))
         in
         List.for_all
           (fun (name, outs) ->
             let expected = List.assoc name clean in
             List.for_all
               (fun (pname, o) ->
                 (* Either the clean outcome, or an honest abstention.
                    In particular Verified<->Failed flips are ruled
                    out: a differing outcome must be degraded. *)
                 degraded o || o = List.assoc pname expected)
               outs)
           faulted))

(* ------------------------------------------------------------------ *)
(* Fault-spec parsing *)

let test_fault_determinism_across_domains () =
  (* Draws hash [(seed, site, k)] with k from a per-site atomic
     counter, so the *multiset* of draws over N total calls is fixed by
     the seed — how the calls interleave across domains only permutes
     which domain sees which k. The observable consequence: the total
     fire count is identical for any domain split, and replayable. *)
  let total_fires ~domains ~per_domain =
    F.configure ~seed:123 [ (F.Solver, 0.3) ];
    Fun.protect ~finally:F.clear (fun () ->
        let doms =
          List.init domains (fun _ ->
              Domain.spawn (fun () ->
                  let n = ref 0 in
                  for _ = 1 to per_domain do
                    if F.fires F.Solver then incr n
                  done;
                  !n))
        in
        List.fold_left (fun acc d -> acc + Domain.join d) 0 doms)
  in
  let seq = total_fires ~domains:1 ~per_domain:4000 in
  let par = total_fires ~domains:4 ~per_domain:1000 in
  let par' = total_fires ~domains:4 ~per_domain:1000 in
  Alcotest.(check int) "1 domain = 4 domains" seq par;
  Alcotest.(check int) "replay is exact" par par';
  Alcotest.(check bool)
    (Printf.sprintf "draws are non-trivial (%d/4000 fired)" seq)
    true
    (seq > 0 && seq < 4000)

let test_fault_spec_parsing () =
  (match F.configure_from_string "session=1,cache=0.5,seed=7" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "valid spec rejected: %s" m);
  Fun.protect ~finally:F.clear (fun () ->
      Alcotest.(check bool) "active" true (F.active ());
      Alcotest.(check (option int)) "seed parsed" (Some 7) (F.seed ()));
  Alcotest.(check bool)
    "unknown site rejected" true
    (match F.configure_from_string "warp=0.5" with
    | Error _ -> true
    | Ok () -> false);
  Alcotest.(check bool)
    "out-of-range probability rejected" true
    (match F.configure_from_string "solver=1.5" with
    | Error _ -> true
    | Ok () -> false);
  Alcotest.(check bool) "cleared" false (F.active ())

let () =
  Alcotest.run "resilience"
    [
      ( "budget",
        [
          Alcotest.test_case "deadline-stops-divergence" `Quick
            test_deadline_stops_divergence;
          Alcotest.test_case "cancellation" `Quick test_cancellation;
          Alcotest.test_case "parent-cancellation" `Quick
            test_parent_cancellation;
          Alcotest.test_case "child-never-outlives-parent" `Quick
            test_budget_child_never_outlives_parent;
          Alcotest.test_case "zero-and-negative" `Quick
            test_budget_zero_and_negative;
          Alcotest.test_case "fuel-simplex" `Quick test_fuel_simplex;
          Alcotest.test_case "fuel-sat-conflicts" `Quick
            test_fuel_sat_conflicts;
        ] );
      ( "jobs",
        [
          Alcotest.test_case "job-timeout" `Quick test_job_timeout;
          Alcotest.test_case "retry-escalates-to-success" `Quick
            test_job_retry_escalates_to_success;
          Alcotest.test_case "int-refusal-not-retried" `Quick
            test_job_int_refusal_not_retried;
          Alcotest.test_case "timeout-isolates-siblings" `Quick
            test_engine_timeout_isolates_siblings;
        ] );
      ( "cache",
        [
          Alcotest.test_case "corruption-is-a-miss" `Quick
            test_cache_corruption_is_a_miss;
        ] );
      ( "faults",
        [
          Alcotest.test_case "session-faults-fall-back" `Quick
            test_session_faults_fall_back;
          Alcotest.test_case "cache-faults-keep-verdicts" `Quick
            test_cache_faults_keep_verdicts;
          Alcotest.test_case "pool-fault-crashes-not-fails" `Quick
            test_pool_fault_crashes_not_fails;
          Alcotest.test_case "deterministic-replay" `Quick
            test_deterministic_replay;
          Alcotest.test_case "determinism-across-domains" `Quick
            test_fault_determinism_across_domains;
          Alcotest.test_case "fault-spec-parsing" `Quick
            test_fault_spec_parsing;
          chaos_no_verdict_flips;
        ] );
    ]
