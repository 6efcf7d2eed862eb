(** The experiment harness: regenerates every table and figure of
    EXPERIMENTS.md (reconstructed from the paper's evaluation — see
    DESIGN.md for the mismatch notice and the experiment index).

    Run all:         dune exec bench/main.exe
    One experiment:  dune exec bench/main.exe -- table1 fig3
    List targets:    dune exec bench/main.exe -- --help

    Throughput is measured by perfbench/, not here. *)

module A = Baselogic.Assertion
module K = Baselogic.Kernel
module T = Smt.Term
module V = Verifier.Exec
module P = Proofmode.Prove
module G = Suite.Generators
module Pr = Suite.Programs
module E = Engine

(* Wall-clock, not [Sys.time]: CPU time sums across domains and would
   over-report (and hide speedup) under the parallel engine. *)
let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let ms t = t *. 1000.0

(** Run [f] [reps] times: its last result and its best wall time. *)
let best_of reps f =
  let best = ref (time f) in
  for _ = 2 to reps do
    let r, t = time f in
    best := (r, Float.min t (snd !best))
  done;
  !best

(* Flush per line so partial results survive interrupts. *)
let printf fmt = Printf.(kfprintf (fun oc -> flush oc) stdout fmt)

(** --quick trims sizes so a target doubles as a CI smoke test. *)
let quick = ref false

(** Verify a suite entry, collecting timing + stats. *)
let run_verifier ?heap_dep ?absint (prog : V.program) =
  Smt.Stats.reset ();
  let vstats = Verifier.Vstats.create () in
  let results, t =
    time (fun () -> V.verify ?heap_dep ?absint ~stats:vstats prog)
  in
  let ok = List.for_all (fun (_, o) -> o = V.Verified) results in
  (ok, t, Verifier.Vstats.copy vstats, Smt.Stats.snapshot ())

let run_baseline (b : Pr.baseline) =
  Smt.Stats.reset ();
  K.reset_rule_count ();
  let body = b.b_body in
  let r, t =
    time (fun () ->
        match
          P.prove_triple ~invariants:b.b_invs ~pre:b.b_pre body "result"
            b.b_post
        with
        | _ -> true
        | exception P.Tactic_error _ -> false
        | exception K.Rule_error _ -> false)
  in
  (r, t, K.rule_count (), Smt.Stats.snapshot ())

(* ------------------------------------------------------------------ *)
(* T1: the benchmark-suite table *)

let table1 () =
  printf "\n== Table 1: benchmark suite ==\n";
  printf
    "%-14s | %9s %6s %7s %7s | %9s %8s\n" "program" "auto(ms)" "oblig"
    "chunks" "queries" "base(ms)" "rules";
  printf "%s\n" (String.make 78 '-');
  List.iter
    (fun (e : Pr.entry) ->
      let ok, t, vs, ss = run_verifier e.prog in
      let base =
        match e.baseline with
        | Some b ->
            let ok_b, tb, rules, _ = run_baseline b in
            if ok_b then Printf.sprintf "%9.1f %8d" (ms tb) rules
            else "   failed        -"
        | None -> "        -        -"
      in
      printf "%-14s | %9.1f %6d %7d %7d | %s%s\n" e.name (ms t)
        vs.Verifier.Vstats.obligations vs.Verifier.Vstats.chunk_matches
        ss.Smt.Stats.queries base
        (if ok then "" else "   << verification failed"))
    Pr.positive

(* ------------------------------------------------------------------ *)
(* T2: solver breakdown *)

let table2 () =
  printf "\n== Table 2: solver breakdown per program ==\n";
  printf "%-14s | %7s %9s %9s %6s %7s %7s\n" "program" "queries"
    "theory-ck" "lia-ck" "euf" "blocked" "eqprop";
  printf "%s\n" (String.make 72 '-');
  List.iter
    (fun (e : Pr.entry) ->
      let _, _, _, ss = run_verifier e.prog in
      printf "%-14s | %7d %9d %9d %6d %7d %7d\n" e.name
        ss.Smt.Stats.queries ss.Smt.Stats.theory_checks ss.Smt.Stats.lia_checks
        ss.Smt.Stats.euf_checks ss.Smt.Stats.blocking_clauses
        ss.Smt.Stats.eq_propagations)
    Pr.positive

(* ------------------------------------------------------------------ *)
(* T3: stability / heap-dependence *)

let table3 () =
  printf "\n== Table 3: destabilization at work ==\n";
  printf "%-14s | %11s %10s | %s\n" "program" "resolutions"
    "stab-check" "stable-variant Δ(oblig)";
  printf "%s\n" (String.make 68 '-');
  List.iter
    (fun (e : Pr.entry) ->
      let _, _, vs, _ = run_verifier e.prog in
      let delta =
        match e.stable_variant with
        | Some sv ->
            let okv, _, vsv, _ = run_verifier sv in
            if okv then
              Printf.sprintf "%+d"
                (vsv.Verifier.Vstats.obligations - vs.Verifier.Vstats.obligations)
            else "stable variant failed"
        | None -> "-"
      in
      printf "%-14s | %11d %10d | %s\n" e.name
        vs.Verifier.Vstats.resolutions vs.Verifier.Vstats.stab_checks delta)
    Pr.positive

(* ------------------------------------------------------------------ *)
(* F1: scaling — straight-line programs, automated vs baseline *)

let fig1 () =
  printf "\n== Figure 1: straight-line scaling (auto vs baseline) ==\n";
  printf "%6s | %10s %10s | %10s %10s\n" "n" "auto(ms)" "queries"
    "base(ms)" "rules";
  printf "%s\n" (String.make 56 '-');
  List.iter
    (fun n ->
      let proc, base = G.straightline n in
      let prog = { V.procs = [ proc ]; preds = Stdx.Smap.empty; invs = [] } in
      let ok, t, _, ss = run_verifier prog in
      let ok_b, tb, rules, _ = run_baseline base in
      printf "%6d | %10.1f %10d | %10.1f %10d%s\n" n (ms t)
        ss.Smt.Stats.queries (ms tb) rules
        (if ok && ok_b then "" else "  << FAILED"))
    [ 2; 4; 8; 12; 16 ]

(* ------------------------------------------------------------------ *)
(* F2: scaling — symbolic-heap size *)

let fig2 () =
  printf "\n== Figure 2: symbolic-heap scaling (multicell) ==\n";
  printf "%6s | %10s %10s %10s\n" "k" "auto(ms)" "oblig" "chunks";
  printf "%s\n" (String.make 44 '-');
  List.iter
    (fun k ->
      let proc = G.multicell k in
      let prog = { V.procs = [ proc ]; preds = Stdx.Smap.empty; invs = [] } in
      let ok, t, vs, _ = run_verifier prog in
      printf "%6d | %10.1f %10d %10d%s\n" k (ms t)
        vs.Verifier.Vstats.obligations vs.Verifier.Vstats.chunk_matches
        (if ok then "" else "  << FAILED"))
    [ 2; 4; 8; 12; 16; 24 ]

(* ------------------------------------------------------------------ *)
(* F3: solver scaling *)

let fig3 () =
  printf "\n== Figure 3: solver scaling ==\n";
  printf "%-12s %6s | %10s %10s %10s\n" "family" "n" "time(ms)"
    "conflicts" "verdict";
  printf "%s\n" (String.make 56 '-');
  let run name n instance expected =
    Smt.Stats.reset ();
    let r, t = time (fun () -> Smt.Solver.check_sat instance) in
    let verdict =
      match r with
      | Smt.Solver.Sat _ -> "sat"
      | Smt.Solver.Unsat -> "unsat"
      | Smt.Solver.Unknown -> "unknown"
      | Smt.Solver.Resource_out _ -> "resource-out"
    in
    let ss = Smt.Stats.snapshot () in
    printf "%-12s %6d | %10.1f %10d %10s%s\n" name n (ms t)
      ss.Smt.Stats.sat_conflicts verdict
      (if String.equal verdict expected then "" else "  << UNEXPECTED")
  in
  List.iter (fun n -> run "pigeonhole" n (G.pigeonhole n) "unsat") [ 3; 4; 5; 6 ];
  List.iter (fun k -> run "euf-chain" k (G.euf_chain k) "unsat") [ 8; 16; 32; 48 ];
  List.iter (fun k -> run "lia-diamond" k (G.lia_diamond k) "sat") [ 4; 8; 12; 16 ]

(* ------------------------------------------------------------------ *)
(* A1: heap-dependent assertions on/off *)

let ablation_hd () =
  printf "\n== Ablation A1: heap-dependent assertions ==\n";
  printf "%-14s | %12s %12s | %s\n" "program" "hd-spec(ms)"
    "stable(ms)" "note";
  printf "%s\n" (String.make 64 '-');
  List.iter
    (fun (e : Pr.entry) ->
      match e.stable_variant with
      | None -> ()
      | Some sv ->
          let ok1, t1, _, _ = run_verifier e.prog in
          let ok2, t2, _, _ = run_verifier sv in
          (* The hd spec must fail when heap dependence is disabled. *)
          let ok3, _, _, _ = run_verifier ~heap_dep:false e.prog in
          printf "%-14s | %12.1f %12.1f | hd-off: %s%s\n" e.name (ms t1)
            (ms t2)
            (if ok3 then "verified (!)" else "rejected as expected")
            (if ok1 && ok2 then "" else "  << FAILED"))
    Pr.positive

(* ------------------------------------------------------------------ *)
(* A2: unsat-core minimization on/off *)

let ablation_cores () =
  printf "\n== Ablation A2: unsat-core minimization in the solver ==\n";
  printf "%-12s %6s | %12s %10s | %12s %10s\n" "family" "n" "min(ms)"
    "blocked" "nomin(ms)" "blocked";
  printf "%s\n" (String.make 72 '-');
  let run name n instance =
    let go minimize =
      Smt.Stats.reset ();
      let _, t = time (fun () -> Smt.Solver.check_sat ~minimize instance) in
      (t, (Smt.Stats.snapshot ()).Smt.Stats.blocking_clauses)
    in
    let t1, b1 = go true in
    let t2, b2 = go false in
    printf "%-12s %6d | %12.1f %10d | %12.1f %10d\n" name n (ms t1) b1
      (ms t2) b2
  in
  List.iter (fun k -> run "lia-diamond" k (G.lia_diamond k)) [ 6; 10; 14 ];
  List.iter (fun k -> run "euf-chain" k (G.euf_chain k)) [ 12; 16 ]

(* ------------------------------------------------------------------ *)
(* E1: parallel-engine scaling — wall time vs domains *)

let engine_scaling () =
  printf "\n== Engine scaling: wall time vs worker domains ==\n";
  printf "(host has %d core(s); re-verification workload = positive suite x %d)\n"
    (Domain.recommended_domain_count ()) 12;
  (* A realistic re-verification workload: every positive suite entry,
     repeated, as incremental runs re-verify mostly unchanged code. *)
  let reps = 12 in
  let progs =
    List.concat_map
      (fun r ->
        List.map
          (fun (e : Pr.entry) -> (Printf.sprintf "%s#%d" e.name r, e.prog))
          Pr.positive)
      (List.init reps Fun.id)
  in
  printf "%7s | %10s %8s | %6s | %s\n" "domains" "wall(ms)" "speedup" "steals"
    "solver(ms)/domain";
  printf "%s\n" (String.make 64 '-');
  let baseline = ref nan in
  List.iter
    (fun domains ->
      let config = { E.default_config with E.domains } in
      let report = E.verify_programs ~config progs in
      let s = report.E.stats in
      let ok = List.for_all E.group_ok report.E.groups in
      if domains = 1 then baseline := s.E.wall_ms;
      printf "%7d | %10.1f %7.2fx | %6d | [%s]%s\n" domains s.E.wall_ms
        (!baseline /. s.E.wall_ms)
        s.E.pool.E.Pool.steals
        (String.concat ","
           (List.map (Printf.sprintf "%.0f")
              (Array.to_list s.E.solver_ms_per_domain)))
        (if ok then "" else "  << FAILED"))
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* E2: incremental sessions vs one-shot solving *)

(** One-shot vs session latency on the F3 (euf-chain entailment) and
    F2 (multicell verification) workloads. The euf-chain rows compare
    [check_sat] on the full instance against a session asserting the
    same hypotheses and checking [False] on live theory state; the
    multicell rows run the whole verifier with sessions forced through
    the one-shot pipeline ({!Smt.Session.oneshot}) vs the incremental
    default. *)
let smt_incremental () =
  printf "\n== E2: incremental sessions vs one-shot ==\n";
  printf "%-12s %6s | %12s %12s %8s | %s\n" "workload" "n" "oneshot(ms)"
    "session(ms)" "speedup" "counters (session)";
  printf "%s\n" (String.make 78 '-');
  let sizes = if !quick then [ 16; 32 ] else [ 8; 16; 32; 48 ] in
  List.iter
    (fun n ->
      let instance = G.euf_chain n in
      Smt.Stats.reset ();
      let r1, t1 = time (fun () -> Smt.Solver.check_sat instance) in
      Smt.Stats.reset ();
      let r2, t2 =
        time (fun () ->
            let s = Smt.Session.create () in
            List.iter
              (fun h ->
                Smt.Session.push s;
                Smt.Session.assert_hyp s h)
              instance;
            Smt.Session.check_goal s T.fls)
      in
      let ss = Smt.Stats.snapshot () in
      let agree =
        match (r1, r2) with
        | Smt.Solver.Unsat, Smt.Solver.Valid -> true
        | Smt.Solver.Sat _, Smt.Solver.Invalid _ -> true
        | _ -> false
      in
      printf "%-12s %6d | %12.1f %12.2f %7.1fx | theory=%d fallbacks=%d%s\n"
        "euf-chain" n (ms t1) (ms t2) (t1 /. t2) ss.Smt.Stats.theory_checks
        ss.Smt.Stats.session_fallbacks
        (if agree then "" else "  << VERDICT MISMATCH"))
    sizes;
  let ks = if !quick then [ 8 ] else [ 8; 16; 24 ] in
  List.iter
    (fun k ->
      let prog = { V.procs = [ G.multicell k ]; preds = Stdx.Smap.empty; invs = [] } in
      (* Best of [reps] per mode: single verifier runs are short enough
         that scheduler noise would dominate a one-shot-vs-session
         comparison. *)
      let reps = if !quick then 1 else 3 in
      let best oneshot =
        Smt.Session.oneshot := oneshot;
        let (ok, _, _, ss), t = best_of reps (fun () -> run_verifier prog) in
        Smt.Session.oneshot := false;
        (ok, t, ss)
      in
      let ok1, t1, _ = best true in
      let ok2, t2, ss2 = best false in
      printf "%-12s %6d | %12.1f %12.1f %7.1fx | checks=%d fallbacks=%d%s\n"
        "multicell" k (ms t1) (ms t2) (t1 /. t2) ss2.Smt.Stats.session_checks
        ss2.Smt.Stats.session_fallbacks
        (if ok1 && ok2 then "" else "  << FAILED"))
    ks

(* ------------------------------------------------------------------ *)
(* A3: static-analysis overhead — lint cost next to solver cost *)

let lint_overhead () =
  printf "\n== Ablation A3: static-analysis (lint) overhead ==\n";
  printf "%-14s | %9s %9s %8s | %6s %6s\n" "program" "lint(ms)"
    "verify(ms)" "lint/ver" "diags" "errors";
  printf "%s\n" (String.make 62 '-');
  let total_lint = ref 0.0 and total_verify = ref 0.0 in
  List.iter
    (fun (e : Pr.entry) ->
      (* Best of 5: a single lint pass is microseconds and scheduler
         noise would swamp the ratio. *)
      let ds, tl =
        best_of 5 (fun () -> Analysis.analyze_program ~name:e.name e.prog)
      in
      let _, tv, _, _ = run_verifier e.prog in
      total_lint := !total_lint +. tl;
      total_verify := !total_verify +. tv;
      printf "%-14s | %9.3f %9.1f %7.4f%% | %6d %6d\n" e.name (ms tl)
        (ms tv)
        (100.0 *. tl /. tv)
        (List.length ds)
        (List.length (Diag.errors ds)))
    Pr.positive;
  printf "%s\n" (String.make 62 '-');
  printf "%-14s | %9.3f %9.1f %7.4f%%\n" "total" (ms !total_lint)
    (ms !total_verify)
    (100.0 *. !total_lint /. !total_verify)

(* ------------------------------------------------------------------ *)
(* Overhead targets: R1 (budget polling) and A4 (abstract
   interpretation) each time the positive suite with a mechanism off
   and on, against a ≤2% target. *)

(** One sweep of the positive suite; a failing entry aborts [target]. *)
let positive_sweep target ?absint () =
  List.iter
    (fun (e : Pr.entry) ->
      let ok, _, _, _ = run_verifier ?absint e.prog in
      if not ok then failwith (target ^ ": " ^ e.name ^ " failed"))
    Pr.positive

(** [quartiles xs]: the lower quartile, median and upper quartile of
    [xs] (non-empty), interpolating between order statistics. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let at p =
    let r = p *. float_of_int (Array.length a - 1) in
    let i = int_of_float r in
    let j = min (i + 1) (Array.length a - 1) in
    a.(i) +. ((r -. float_of_int i) *. (a.(j) -. a.(i)))
  in
  (at 0.25, at 0.5, at 0.75)

type overhead = {
  off_ms : float;  (** median sweep time, mechanism off *)
  on_ms : float;  (** median sweep time, mechanism on *)
  q1 : float;  (** per-rep overhead of [on] over [off], in percent *)
  median : float;
  q3 : float;
}

(** Interleaved A/B over [reps] pairs: each pair times [off] and [on]
    back to back, alternating which runs first, so clock and GC drift
    fall on both arms. The sweeps are tens of ms, so one scheduler
    hiccup in one arm reads as percents of fake overhead; the overhead
    is therefore the median of the per-pair on/off ratios, reported
    with its quartiles rather than as one best-of ratio. *)
let interleaved_overhead ~off ~on =
  let reps = if !quick then 7 else 21 in
  ignore (time off) (* warm up: allocators, caches, code paths *);
  ignore (time on);
  let pairs =
    List.init reps (fun i ->
        if i mod 2 = 0 then
          let t_off = snd (time off) in
          (t_off, snd (time on))
        else
          let t_on = snd (time on) in
          (snd (time off), t_on))
  in
  let _, off_ms, _ = quartiles (List.map (fun (t, _) -> ms t) pairs) in
  let _, on_ms, _ = quartiles (List.map (fun (_, t) -> ms t) pairs) in
  let q1, median, q3 =
    quartiles
      (List.map (fun (t_off, t_on) -> 100.0 *. ((t_on /. t_off) -. 1.0)) pairs)
  in
  { off_ms; on_ms; q1; median; q3 }

(** The overhead as [median [q1, q3]] against the 2% target: over it
    only when even the lower quartile is, unresolved when the quartiles
    straddle it. *)
let pp_overhead o =
  Printf.sprintf "%+.2f%% [%+.2f, %+.2f]%s" o.median o.q1 o.q3
    (if o.q1 > 2.0 then "  << OVER TARGET (2%)"
     else if o.q3 > 2.0 then "  (unresolved: quartiles straddle 2%)"
     else "")

(* R1: running the suite under an ambient (generous) deadline, against
   no budget installed. *)
let budget_overhead () =
  printf "\n== R1: budget-polling overhead ==\n";
  let sweep = positive_sweep "budget_overhead" in
  let o =
    interleaved_overhead ~off:sweep ~on:(fun () ->
        (* A deadline far beyond the sweep: every poll site pays the
           check, none ever fires. *)
        Stdx.Budget.with_budget
          (Stdx.Budget.create ~timeout_ms:600_000.0 ())
          sweep)
  in
  printf "%-18s %10s %12s  %s\n" "workload" "bare(ms)" "budget(ms)"
    "overhead median [q1, q3]";
  printf "%s\n" (String.make 72 '-');
  printf "%-18s %10.1f %12.1f  %s\n" "positive suite" o.off_ms o.on_ms
    (pp_overhead o)

(* A4: the absint pass (the interval×parity environment threaded
   through every [add_pure], plus the Valid-only pre-discharge attempt
   on every entailment) against a run with the pass disabled. The
   pass also *saves* solver calls, so the net can come out negative. *)
let absint_overhead () =
  printf "\n== A4: abstract-interpretation overhead ==\n";
  let sweep absint = positive_sweep "absint_overhead" ~absint in
  let o = interleaved_overhead ~off:(sweep false) ~on:(sweep true) in
  (* How much the pass actually discharged on one instrumented sweep. *)
  let vstats = Verifier.Vstats.create () in
  List.iter
    (fun (e : Pr.entry) -> ignore (V.verify ~stats:vstats e.prog))
    Pr.positive;
  printf "%-18s %10s %12s %11s  %s\n" "workload" "off(ms)" "on(ms)"
    "discharged" "overhead median [q1, q3]";
  printf "%s\n" (String.make 84 '-');
  printf "%-18s %10.1f %12.1f %7d/%-3d  %s\n" "positive suite" o.off_ms
    o.on_ms vstats.Verifier.Vstats.absint_discharged
    (vstats.Verifier.Vstats.absint_discharged
    + vstats.Verifier.Vstats.absint_abstained)
    (pp_overhead o)

(* ------------------------------------------------------------------ *)
(* C1: the concurrent suite — per-scenario verification time and
   verdict invariance under mirroring every par (Pr.mirror_par). The
   invariance check is load-bearing: an order-dependent verdict would
   mean the symbolic executor let one par branch see the other, which
   is a soundness bug, so the bench hard-fails rather than reporting
   a number. *)

let conc_suite () =
  printf "\n== C1: concurrent scenarios (par + named invariants) ==\n";
  let conc_names =
    [ "spinlock"; "ticket_lock"; "treiber"; "racy_incr"; "lock_noinv" ]
  in
  let entries =
    List.filter (fun (e : Pr.entry) -> List.mem e.name conc_names) Pr.all
  in
  let reps = if !quick then 3 else 11 in
  printf "%-14s %10s %10s %10s %12s\n" "entry" "best(ms)" "verdict"
    "expected" "mirror-agree";
  printf "%s\n" (String.make 60 '-');
  List.iter
    (fun (e : Pr.entry) ->
      let base = V.verify e.prog in
      let ok = List.for_all (fun (_, o) -> o = V.Verified) base in
      if ok = e.expect_fail then
        failwith ("conc_suite: " ^ e.name ^ " has the wrong polarity");
      if V.verify (Pr.mirror_par e.prog) <> base then
        failwith ("conc_suite: " ^ e.name ^ " verdicts depend on par order");
      let _, t = best_of reps (fun () -> V.verify e.prog) in
      printf "%-14s %10.2f %10s %10s %12s\n" e.name (ms t)
        (if ok then "verified" else "failed")
        (if e.expect_fail then "fail" else "verify")
        "yes")
    entries;
  (* One instrumented sweep for the concurrency counters. *)
  let vstats = Verifier.Vstats.create () in
  List.iter
    (fun (e : Pr.entry) -> ignore (V.verify ~stats:vstats e.prog))
    entries;
  printf "counters: par=%d inv-opens=%d havocs=%d\n"
    vstats.Verifier.Vstats.par_branches vstats.Verifier.Vstats.inv_opens
    vstats.Verifier.Vstats.interference_havocs

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("ablation_hd", ablation_hd);
    ("ablation_cores", ablation_cores);
    ("engine_scaling", engine_scaling);
    ("smt_incremental", smt_incremental);
    ("lint_overhead", lint_overhead);
    ("budget_overhead", budget_overhead);
    ("absint_overhead", absint_overhead);
    ("conc_suite", conc_suite);
  ]

let usage oc =
  Printf.fprintf oc "targets: %s
flags: --quick (smaller sizes) --help
%!"
    (String.concat " " (List.map fst experiments))

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let flags, names = List.partition (String.starts_with ~prefix:"--") args in
  if List.mem "--help" flags then begin
    usage stdout;
    exit 0
  end;
  let unknown =
    List.filter (fun f -> f <> "--quick") flags
    @ List.filter (fun n -> not (List.mem_assoc n experiments)) names
  in
  if unknown <> [] then begin
    Printf.eprintf "unknown target or flag: %s\n" (String.concat " " unknown);
    usage stderr;
    exit 2
  end;
  quick := List.mem "--quick" flags;
  let selected =
    match names with
    | [] -> experiments
    | names -> List.filter (fun (n, _) -> List.mem n names) experiments
  in
  printf "Daenerys-style verifier — experiment harness\n";
  printf "(reconstructed experiments; see DESIGN.md / EXPERIMENTS.md)\n";
  List.iter (fun (_, f) -> f ()) selected
