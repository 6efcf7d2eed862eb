(** The parallel verification engine.

    Decomposes program verification into per-procedure {!Job}s and
    drains them over a {!Pool} of worker domains. Statistics that
    used to live in process-global mutable records are per-job
    ({!Verifier.Vstats}, instance-passed through the symbolic state)
    or per-domain ({!Smt.Stats}, domain-local); the engine merges both
    into one report, so a parallel run accounts exactly like a
    sequential one.

    [domains = 1] runs the same job pipeline on the calling domain
    only — the CLI always goes through the engine, which is what makes
    "[-j 4] verdicts ≡ [-j 1] verdicts" checkable rather than
    aspirational. *)

module Options = Options
module Pool = Pool
module Job = Job
module Vc_cache = Vc_cache
module V = Verifier.Exec

type config = {
  domains : int;  (** worker domains (including the calling one) *)
  options : Options.t;  (** the verdict-affecting knobs *)
  timeout_ms : float option;  (** per-job wall-clock deadline *)
  retries : int;
      (** budget-escalated retries per job on [Timeout]/[Resource_out] *)
}

let default_config =
  { domains = 1; options = Options.default; timeout_ms = None; retries = 0 }

type analysis_stats = {
  a_programs : int;
  a_diags : int;  (** all findings, any severity *)
  a_errors : int;  (** error-severity findings *)
  a_wall_ms : float;  (** wall clock of the analysis phase *)
}

type stats = {
  analysis : analysis_stats option;  (** when [config.options.lint] *)
  jobs : int;
  wall_ms : float;  (** end-to-end wall clock for the whole run *)
  pool : Pool.stats;
  solver_ms_per_domain : float array;  (** time inside [check_sat] *)
  cache_hits : int;
      (** 1 when the verdict tier's memory answered ({!cached_report}) *)
  cache_disk_hits : int;  (** 1 when the verdict tier's disk answered *)
  cache_misses : int;
      (** always 0: a report is either a verdict-tier hit or a full run;
          kept for the report's wire format *)
  timeouts : int;  (** jobs whose final outcome was [Timeout] *)
  resource_outs : int;  (** jobs whose final outcome was [Resource_out] *)
  crashes : int;  (** jobs whose final outcome was [Crashed] *)
  retries : int;  (** extra attempts spent across all jobs *)
  vstats : Verifier.Vstats.t;  (** merged over all jobs *)
  smt : Smt.Stats.t;  (** merged over all worker domains *)
}

type group_result = {
  group : string;
  outcomes : (string * V.outcome) list;  (** per procedure, in order *)
  ms : float;  (** summed job time (≥ wall time under parallelism) *)
}

type report = {
  groups : group_result list;
  lint : (string * Diag.t list) list;
      (** per-program analyzer findings (empty unless
          [config.options.lint]) *)
  stats : stats;
}

let group_ok (g : group_result) =
  List.for_all (fun (_, o) -> o = V.Verified) g.outcomes

(** The static-analysis phase: one job per program, drained over the
    same domain pool the verification jobs will use. Pure and
    solver-free, so no stats prologue/epilogue is needed. [srcmaps]
    associates program names with the source maps elaboration produced
    for them; findings on those programs are re-anchored at their
    source spans. *)
let run_analysis ?(srcmaps : (string * Diag.srcmap) list = [])
    ?(absint = true) ~domains (progs : (string * V.program) list) :
    (string * Diag.t list) list * analysis_stats =
  let t0 = Unix.gettimeofday () in
  let items = Array.of_list progs in
  let diags, _, _ =
    Pool.run ~domains
      ~epilogue:(fun () -> ())
      (fun (name, prog) ->
        (name, Analysis.analyze_program ~name ~absint prog))
      items
  in
  let results =
    Array.to_list diags
    |> List.map (fun (name, ds) ->
           match List.assoc_opt name srcmaps with
           | Some m -> (name, Diag.relocate_all m ds)
           | None -> (name, ds))
  in
  let all = List.concat_map snd results in
  ( results,
    {
      a_programs = List.length progs;
      a_diags = List.length all;
      a_errors = List.length (Diag.errors all);
      a_wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
    } )

(** A run's stats before any work: every counter zero. *)
let zero_stats () =
  {
    analysis = None;
    jobs = 0;
    wall_ms = 0.0;
    pool =
      { Pool.domains = 0; jobs_per_domain = [||]; ms_per_domain = [||]; steals = 0 };
    solver_ms_per_domain = [||];
    cache_hits = 0;
    cache_disk_hits = 0;
    cache_misses = 0;
    timeouts = 0;
    resource_outs = 0;
    crashes = 0;
    retries = 0;
    vstats = Verifier.Vstats.create ();
    smt = Smt.Stats.create ();
  }

(** Verify a list of named programs. Every procedure of every program
    becomes one job; all jobs share one queue, so parallelism is
    across programs as well as within them. With [config.options.lint],
    the analysis phase runs on the pool first and gates error-ridden
    programs away from the solver. The report has exactly one group per
    input program, in input order; a program without procedures gets a
    group with no outcomes (vacuously verified). *)
let verify_programs ?(config = default_config)
    ?(srcmaps : (string * Diag.srcmap) list = [])
    (progs : (string * V.program) list) : report =
  let lint_results, analysis_stats =
    if config.options.lint then
      let r, s =
        run_analysis ~srcmaps ~absint:config.options.absint
          ~domains:config.domains progs
      in
      (r, Some s)
    else ([], None)
  in
  (* Gate: a program with error-severity findings never reaches the
     solver — each of its procedures reports the first error. The
     analysis results are in input order, one per program. *)
  let gates =
    if config.options.lint then
      List.map (fun (_, ds) -> List.find_opt Diag.is_error ds) lint_results
    else List.map (fun _ -> None) progs
  in
  let jobs =
    List.concat
      (List.map2
         (fun (group, prog) gate ->
           if Option.is_some gate then []
           else
             let srcmap =
               Option.value ~default:[] (List.assoc_opt group srcmaps)
             in
             Job.of_program ~options:config.options ~srcmap ~group prog)
         progs gates)
    |> Array.of_list
  in
  let t0 = Unix.gettimeofday () in
  let results, smt_per_domain, pool =
    Pool.run ~domains:config.domains ~prologue:Smt.Stats.reset
      ~epilogue:Smt.Stats.snapshot
      (Job.run ?timeout_ms:config.timeout_ms ~retries:config.retries)
      jobs
  in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let count pred =
    Array.fold_left
      (fun n (r : Job.result) -> if pred r.Job.outcome then n + 1 else n)
      0 results
  in
  let stats =
    {
      (zero_stats ()) with
      analysis = analysis_stats;
      jobs = Array.length jobs;
      wall_ms;
      pool;
      solver_ms_per_domain =
        Array.map (fun (s : Smt.Stats.t) -> s.Smt.Stats.solve_ms) smt_per_domain;
      timeouts = count (function V.Timeout _ -> true | _ -> false);
      resource_outs = count (function V.Resource_out _ -> true | _ -> false);
      crashes = count (function V.Crashed _ -> true | _ -> false);
      retries =
        Array.fold_left
          (fun n (r : Job.result) -> n + r.Job.attempts - 1)
          0 results;
      vstats =
        Array.fold_left
          (fun acc (r : Job.result) -> Verifier.Vstats.sum acc r.vstats)
          (Verifier.Vstats.create ()) results;
      smt = Array.fold_left Smt.Stats.sum (Smt.Stats.create ()) smt_per_domain;
    }
  in
  (* Stitch one group per program: a live program's jobs are the next
     [List.length procs] results (jobs were laid out program by
     program), a gated one reports its first error on every procedure. *)
  let next = ref 0 in
  let groups =
    List.map2
      (fun (group, (prog : V.program)) gate ->
        match gate with
        | Some d ->
            let failed = V.Failed (Diag.to_string d) in
            {
              group;
              outcomes =
                List.map (fun (p : V.proc) -> (p.V.pname, failed)) prog.V.procs;
              ms = 0.0;
            }
        | None ->
            let rs = Array.sub results !next (List.length prog.V.procs) in
            next := !next + Array.length rs;
            {
              group;
              outcomes =
                Array.to_list rs
                |> List.map (fun (r : Job.result) ->
                       (r.job.Job.proc.V.pname, r.outcome));
              ms = Array.fold_left (fun a (r : Job.result) -> a +. r.ms) 0.0 rs;
            })
      progs gates
  in
  { groups; lint = lint_results; stats }

(** Convenience wrapper for a single program. *)
let verify_program ?config ~name (prog : V.program) : report =
  verify_programs ?config [ (name, prog) ]

(** A report for a group whose verdicts were answered by the verdict
    tier of a shared cache ({!Vc_cache.lookup_verdicts}): no jobs ran,
    no symbolic execution, no solver work — all solver and verifier
    counters are zero by construction, and the cache counters record
    which tier answered. The daemon synthesizes warm responses with
    this. *)
let cached_report ~group ~(outcomes : (string * V.outcome) list)
    ~(tier : [ `Memory | `Disk ]) ~wall_ms : report =
  let mem, disk = match tier with `Memory -> (1, 0) | `Disk -> (0, 1) in
  {
    groups = [ { group; outcomes; ms = wall_ms } ];
    lint = [];
    stats =
      { (zero_stats ()) with wall_ms; cache_hits = mem; cache_disk_hits = disk };
  }

(** The engine's own counters, under their report-JSON keys. *)
let engine_counters (s : stats) : (string * Stdx.Counters.value) list =
  [
    ("jobs", `Int s.jobs);
    ("wall_ms", `Float s.wall_ms);
    ("cache_hits", `Int s.cache_hits);
    ("cache_disk_hits", `Int s.cache_disk_hits);
    ("cache_misses", `Int s.cache_misses);
    ("timeouts", `Int s.timeouts);
    ("resource_outs", `Int s.resource_outs);
    ("crashes", `Int s.crashes);
    ("retries", `Int s.retries);
  ]

(** Every counter of a run — engine, then solver, then verifier — under
    its field name: the report JSON's [stats] object. *)
let counters (s : stats) =
  engine_counters s
  @ Stdx.Counters.to_list Smt.Stats.fields s.smt
  @ Stdx.Counters.to_list Verifier.Vstats.fields s.vstats

let pp_stats ppf (s : stats) =
  (match s.analysis with
  | Some a ->
      Fmt.pf ppf
        "analysis: %d program(s) in %.1fms — %d finding(s), %d error(s)@ "
        a.a_programs a.a_wall_ms a.a_diags a.a_errors
  | None -> ());
  Fmt.pf ppf
    "@[<v>engine: %d domain(s), steals=%d, per-domain jobs=[%a] wall=[%a]ms \
     solver=[%a]ms@ run: %a@ verifier: %a@ solver: %a@]"
    s.pool.Pool.domains s.pool.Pool.steals
    Fmt.(array ~sep:(any ",") int)
    s.pool.Pool.jobs_per_domain
    Fmt.(array ~sep:(any ",") (fmt "%.1f"))
    s.pool.Pool.ms_per_domain
    Fmt.(array ~sep:(any ",") (fmt "%.1f"))
    s.solver_ms_per_domain Stdx.Counters.pp_list (engine_counters s)
    Verifier.Vstats.pp s.vstats Smt.Stats.pp s.smt
