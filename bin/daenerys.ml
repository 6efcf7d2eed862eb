(** The [daenerys] command-line interface.

    - [daenerys suite -j N]      verify the whole benchmark suite
    - [daenerys verify NAME]     verify one suite entry (verbose)
    - [daenerys verify FILE.hl]  parse, elaborate and verify a surface file
    - [daenerys lint [NAME…]]    static analysis only, no solver
                                 (names ending in [.hl] are loaded as files)
    - [daenerys run NAME]        execute a suite program concretely
    - [daenerys list]            list suite entries

    Surface files ([.hl]) go through the located front-end: the lexer
    and parser stamp every node with a [file:line:col] span, the
    elaborator records a source map per specification clause, and both
    lint findings and verification failures are re-anchored at their
    source — with a caret snippet in pretty output and a ["span"]
    object in [--json].

    All verification goes through the parallel engine ([lib/engine]):
    [-j 1] is the same job pipeline on one domain, so parallel and
    sequential runs are comparable by construction. Timing is
    wall-clock ([Unix.gettimeofday]) — CPU time ([Sys.time]) would
    over-report under parallelism by summing across domains.

    [lint] (and the [--lint] gate on [suite]/[verify]) runs the
    pre-verification static analyzer of [lib/analysis]: spec
    well-formedness, stability explanations with ⌊·⌋ suggestions, and
    the per-branch frame lint — exit status 1 on any error-severity
    diagnostic.

    Exit codes separate judgement from abstention: 0 means every entry
    behaved as expected, 1 means a program is wrong (a failed
    verification, a misbehaving suite entry, or error-severity lint
    findings), 2 means the verifier {e gave up} somewhere — timeout,
    resource exhaustion, or crash — without finding anything wrong.
    [--timeout-ms]/[--retries] bound and retry each verification job;
    [--faults] (or [DAENERYS_FAULTS]) activates seeded fault
    injection for chaos testing. *)

module A = Baselogic.Assertion
module T = Smt.Term
module HL = Heaplang.Ast
module V = Verifier.Exec
module Pr = Suite.Programs
module E = Engine
module R = Server.Render
module Json = Server.Json
open Cmdliner

let find_entry name =
  List.find_opt (fun (e : Pr.entry) -> String.equal e.name name) Pr.all

(* Exit codes (also in the README): the program is wrong vs. the
   verifier gave up. Shared with the daemon via [Server.Render]. *)
let exit_ok = R.exit_ok
let exit_wrong = R.exit_wrong
let exit_gave_up = R.exit_gave_up

let fail_cli msg =
  Fmt.epr "daenerys: %s@." msg;
  exit_wrong

(** Activate [--faults SPEC] before any verification work. *)
let with_faults faults k =
  match faults with
  | None -> k ()
  | Some spec -> (
      match Stdx.Fault.configure_from_string spec with
      | Ok () -> k ()
      | Error m -> fail_cli m)

(* ------------------------------------------------------------------ *)
(* Surface (.hl) files *)

let is_hl name = Filename.check_suffix name ".hl"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** Load an annotated surface file: parse and elaborate, returning the
    program, its source map, and the source text (for caret snippets).
    Front-end errors come back rendered, span and snippet included —
    the elaboration (and its error rendering) is the daemon's, so a
    file fed through [daenerys client] fails with the same message. *)
let load_hl path :
    (V.program * Diag.srcmap * string, string) result =
  if not (Sys.file_exists path) then Error ("no such file: " ^ path)
  else
    let src = read_file path in
    Result.map
      (fun (prog, srcmap) -> (prog, srcmap, src))
      (Server.Daemon.elaborate_source ~file:path src)

(** Print per-program lint findings (skipping clean programs). When a
    finding carries a span into one of [sources] (file → text), its
    caret snippet follows the one-line form. *)
let print_lint_findings ?(sources = []) results =
  let snippet d =
    match d.Diag.loc.Diag.span with
    | Some s when s.Stdx.Loc.file <> "" -> (
        match List.assoc_opt s.Stdx.Loc.file sources with
        | Some src -> Fmt.pr "%a@." Stdx.Loc.pp_snippet (src, s)
        | None -> ())
    | _ -> ()
  in
  List.iter
    (fun (_, ds) ->
      List.iter
        (fun d ->
          Fmt.pr "%a@." Diag.pp d;
          snippet d)
        ds)
    results

(* Entry statuses, verdict lines, exit-code folding and the [--json]
   report document all live in [Server.Render], shared with the
   daemon. *)

let entry_status (e : Pr.entry) (g : E.group_result) =
  R.entry_status ~expect_fail:e.expect_fail g

(** Print one entry's verdict line; returns its status. *)
let report_entry (e : Pr.entry) (g : E.group_result) =
  let status = entry_status e g in
  Fmt.pr "%-14s %-24s %6.1fms@." e.name
    (R.verdict_line ~expect_fail:e.expect_fail status)
    g.E.ms;
  status

let exit_of_statuses = R.exit_of_statuses
let json_of_report = R.json_of_report

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Number of worker domains.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print the engine stats block.")

let no_absint_arg =
  Arg.(
    value & flag
    & info [ "no-absint" ]
        ~doc:
          "Disable the abstract-interpretation pass: the DA018-DA025 \
           diagnostics in the lint stage and the interval/parity \
           pre-discharge of verification conditions ahead of the solver. \
           Verdicts are unaffected either way (the pass short-circuits \
           only $(b,Valid) obligations); this is the escape hatch and the \
           A/B switch for measuring its overhead.")

let lint_flag =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "Run the static analyzer before verification; programs with \
           error-severity diagnostics fail without touching the solver.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock deadline per verification job, in milliseconds. A \
           job that overruns reports $(b,timeout) instead of hanging its \
           worker; see $(b,--retries).")

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retry a job up to $(docv) times when it times out or runs out \
           of solver fuel, escalating the deadline 8x per attempt.")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Activate seeded fault injection for chaos testing, e.g. \
           $(b,session=0.3,cache=0.1,seed=42). Sites: solver, session, \
           cache, pool, socket, worker, stall, disk. Equivalent to \
           setting $(b,DAENERYS_FAULTS).")

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit per-procedure outcomes and run stats as JSON.")

(** [--lint]/[--no-absint]: the verdict-affecting options, shared by
    [suite], [verify] and [client] so the local and daemon paths read
    them identically. *)
let options_term =
  Term.(
    const (fun lint no_absint -> { E.Options.lint; absint = not no_absint })
    $ lint_flag $ no_absint_arg)

(** The local engine configuration of [suite] and [verify]. *)
let config_term =
  Term.(
    const (fun jobs options timeout_ms retries ->
        { E.domains = max 1 jobs; options; timeout_ms; retries })
    $ jobs_arg $ options_term $ timeout_arg $ retries_arg)

let suite_cmd =
  let doc = "Verify every program in the benchmark suite." in
  Cmd.v (Cmd.info "suite" ~doc)
    Term.(
      const (fun config stats faults json ->
          with_faults faults @@ fun () ->
          let report =
            E.verify_programs ~config
              (List.map (fun (e : Pr.entry) -> (e.name, e.prog)) Pr.all)
          in
          if json then begin
            let statuses =
              List.map2 entry_status Pr.all report.E.groups
            in
            let rows =
              List.map2
                (fun (e : Pr.entry) s -> (e.Pr.name, e.Pr.expect_fail, s))
                Pr.all statuses
            in
            Fmt.pr "%s@." (json_of_report report rows);
            exit_of_statuses statuses
          end
          else begin
            if config.E.options.lint then print_lint_findings report.E.lint;
            let statuses =
              List.map2 (fun e g -> report_entry e g) Pr.all report.E.groups
            in
            Fmt.pr "total %.1fms wall (%d jobs, %d domain(s))@."
              report.E.stats.E.wall_ms report.E.stats.E.jobs
              report.E.stats.E.pool.E.Pool.domains;
            if stats then Fmt.pr "%a@." E.pp_stats report.E.stats;
            (match exit_of_statuses statuses with
            | 0 -> ()
            | 1 -> Fmt.epr "daenerys: some entries misbehaved@."
            | _ ->
                Fmt.epr
                  "daenerys: the verifier gave up on some entries \
                   (timeout/resource/crash)@.");
            exit_of_statuses statuses
          end)
      $ config_term $ stats_arg $ faults_arg $ json_flag)

let name_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME")

let print_proc_outcomes (g : E.group_result) =
  List.iter
    (fun (p, o) -> Fmt.pr "  proc %-12s %a@." p V.pp_outcome o)
    g.E.outcomes

let verify_file path ~config ~json =
  match load_hl path with
  | Error m -> fail_cli m
  | Ok (prog, srcmap, src) ->
      let report =
        E.verify_programs ~config ~srcmaps:[ (path, srcmap) ] [ (path, prog) ]
      in
      let g = List.hd report.E.groups in
      let status = R.entry_status ~expect_fail:false g in
      if json then
        Fmt.pr "%s@." (json_of_report report [ (path, false, status) ])
      else begin
        if config.E.options.lint then
          print_lint_findings ~sources:[ (path, src) ] report.E.lint;
        print_proc_outcomes g;
        Fmt.pr "%-24s %s  %.1fms@." path
          (R.verdict_line ~expect_fail:false status)
          g.E.ms
      end;
      R.exit_of_status status

let verify_cmd =
  let doc =
    "Verify one suite entry (by name) or an annotated surface file \
     (by .hl path), with statistics."
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(
      const (fun name config faults json ->
          with_faults faults @@ fun () ->
          if is_hl name then verify_file name ~config ~json
          else
          match find_entry name with
          | Some e ->
              let report = E.verify_program ~config ~name:e.name e.prog in
              let g = List.hd report.E.groups in
              let status = entry_status e g in
              if json then
                Fmt.pr "%s@."
                  (json_of_report report
                     [ (e.Pr.name, e.Pr.expect_fail, status) ])
              else begin
                if config.E.options.lint then print_lint_findings report.E.lint;
                ignore (report_entry e g);
                print_proc_outcomes g;
                Fmt.pr "%a@." E.pp_stats report.E.stats;
                if status = R.Bad then
                  Fmt.epr "daenerys: verification misbehaved@."
              end;
              R.exit_of_status status
          | None -> fail_cli ("unknown entry " ^ name))
      $ name_arg $ config_term $ faults_arg $ json_flag)

(* ------------------------------------------------------------------ *)
(* lint *)

let lint_targets () =
  List.map (fun (e : Pr.entry) -> (e.name, e.prog)) Pr.all
  @ Suite.Examples.all

let lint_cmd =
  let doc =
    "Run the pre-verification static analyzer (no solver). Lints the \
     whole suite and the example programs by default, or just the \
     named entries; exits 1 on any error-severity diagnostic."
  in
  let names_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"NAME")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit diagnostics as a JSON array.")
  in
  let ill_formed_arg =
    Arg.(
      value & flag
      & info [ "ill-formed" ]
          ~doc:
            "Lint the negative suite of deliberately ill-formed \
             programs instead, checking each produces its expected \
             diagnostic codes.")
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(
      const (fun names jobs json ill_formed no_absint stats ->
          if ill_formed then begin
            (* Expectation check over the lint-negative suite. *)
            let failures = ref 0 in
            List.iter
              (fun (c : Suite.Ill_formed.case) ->
                let ds =
                  Analysis.analyze_program ~name:c.Suite.Ill_formed.name
                    c.Suite.Ill_formed.prog
                in
                let got = List.map (fun d -> d.Diag.code) ds in
                let missing =
                  List.filter
                    (fun code -> not (List.mem code got))
                    c.Suite.Ill_formed.codes
                in
                if missing = [] then
                  Fmt.pr "%-20s ok  [%s]@." c.Suite.Ill_formed.name
                    (String.concat " " c.Suite.Ill_formed.codes)
                else begin
                  incr failures;
                  Fmt.pr "%-20s MISSING [%s] — got:@.%a@."
                    c.Suite.Ill_formed.name
                    (String.concat " " missing)
                    Diag.pp_list ds
                end)
              Suite.Ill_formed.all;
            if !failures = 0 then exit_ok
            else
              fail_cli
                (Printf.sprintf "%d ill-formed case(s) missed their codes"
                   !failures)
          end
          else
            (* Names ending in [.hl] are surface files; anything else
               must be a suite / example entry. *)
            let targets =
              match names with
              | [] -> Ok (lint_targets (), [], [])
              | ns ->
                  let all = lint_targets () in
                  let rec pick acc maps srcs = function
                    | [] -> Ok (List.rev acc, maps, srcs)
                    | n :: rest when is_hl n -> (
                        match load_hl n with
                        | Error m -> Error m
                        | Ok (prog, srcmap, src) ->
                            pick ((n, prog) :: acc)
                              ((n, srcmap) :: maps)
                              ((n, src) :: srcs)
                              rest)
                    | n :: rest -> (
                        match List.assoc_opt n all with
                        | Some p -> pick ((n, p) :: acc) maps srcs rest
                        | None -> Error ("unknown entry " ^ n))
                  in
                  pick [] [] [] ns
            in
            match targets with
            | Error m -> fail_cli m
            | Ok (targets, srcmaps, sources) ->
                let results, a =
                  E.run_analysis ~srcmaps ~absint:(not no_absint)
                    ~domains:(max 1 jobs) targets
                in
                let all_ds = List.concat_map snd results in
                if json then
                  Fmt.pr "%s@." (Diag.list_to_json (Diag.sort all_ds))
                else begin
                  print_lint_findings ~sources results;
                  Fmt.pr
                    "lint: %d program(s), %d finding(s), %d error(s)@."
                    a.E.a_programs a.E.a_diags a.E.a_errors
                end;
                if stats then
                  Fmt.pr "analysis wall time: %.1fms on %d domain(s)@."
                    a.E.a_wall_ms (max 1 jobs);
                if Diag.has_errors all_ds then
                  fail_cli "error-severity diagnostics found"
                else exit_ok)
      $ names_arg $ jobs_arg $ json_arg $ ill_formed_arg $ no_absint_arg
      $ stats_arg)

let list_cmd =
  let doc = "List the suite entries." in
  Cmd.v (Cmd.info "list" ~doc)
    Term.(
      const (fun () ->
          List.iter
            (fun (e : Pr.entry) ->
              Fmt.pr "%-14s %s%s@." e.name e.descr
                (if e.expect_fail then "  [negative test]" else ""))
            Pr.all;
          exit_ok)
      $ const ())

let run_cmd =
  let doc =
    "Run a suite program concretely (symbols closed with small values)."
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Scheduler seed: picks which $(b,par) branch each interleaving \
             step runs, so each seed is one replayable interleaving. 0 (the \
             default) is the deterministic left-first order.")
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const (fun name seed ->
          match find_entry name with
          | None -> fail_cli ("unknown entry " ^ name)
          | Some e -> (
              match
                List.find_opt
                  (fun p -> String.equal p.V.pname e.main)
                  e.prog.V.procs
              with
              | None -> fail_cli "no main procedure"
              | Some p ->
                  (* Allocate a cell per pointer parameter, close the
                     rest with small integers. A parameter is a pointer
                     if the spec (requires or any named invariant) uses
                     it as a points-to location, or if the body loads,
                     stores, frees, CASes or FAAs through it directly. *)
                  let rec loc_vars acc = function
                    | A.Points_to { loc; _ } -> (
                        match loc.Smt.Term.node with
                        | Smt.Term.Var (x, _) -> x :: acc
                        | _ -> acc)
                    | A.Sep (a, b) | A.Wand (a, b) | A.And (a, b)
                    | A.Or (a, b) ->
                        loc_vars (loc_vars acc a) b
                    | A.Exists (_, a) | A.Forall (_, a)
                    | A.Persistently a | A.Later a | A.Upd a
                    | A.Stabilize a | A.Wp (_, _, a) ->
                        loc_vars acc a
                    | A.Pure _ | A.Emp | A.Pred _ | A.Ghost _ -> acc
                  in
                  let spec_locs =
                    List.fold_left
                      (fun acc (_, body) -> loc_vars acc body)
                      (loc_vars [] p.V.requires)
                      e.prog.V.invs
                  in
                  let body_locs =
                    List.filter_map
                      (function HL.Val (HL.Sym x) -> Some x | _ -> None)
                      (Analysis.Wellformed.addrs [] p.V.body)
                  in
                  let closure =
                    List.mapi
                      (fun i x ->
                        if List.mem x spec_locs || List.mem x body_locs then
                          (x, HL.Loc i)
                        else (x, HL.Int 3))
                      p.V.params
                  in
                  let body = Heaplang.Subst.close_expr closure p.V.body in
                  let allocs =
                    List.fold_left
                      (fun acc _ -> HL.Seq (HL.Alloc (HL.Val (HL.Int 0)), acc))
                      body p.V.params
                  in
                  let seed = if seed = 0 then None else Some seed in
                  (match Heaplang.Step.run ~fuel:10_000_000 ?seed allocs with
                  | Heaplang.Step.Value (v, _) ->
                      Fmt.pr "result: %a@." HL.pp_value v
                  | Heaplang.Step.Error m -> Fmt.pr "runtime error: %s@." m
                  | Heaplang.Step.Timeout -> Fmt.pr "timeout@.");
                  exit_ok))
      $ name_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* serve / client: the daemon and its CLI front door (lib/server) *)

let socket_arg =
  Arg.(
    value
    & opt string Server.Daemon.default_config.Server.Daemon.socket_path
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the daemon listens on.")

let serve_cmd =
  let doc =
    "Run the verification daemon: a long-lived process with warm worker \
     domains and a two-tier (memory + disk) verdict cache, serving \
     newline-delimited JSON requests on a Unix-domain socket."
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Persist the verdict cache on disk under $(docv), so verdicts for \
             unchanged programs survive daemon restarts. Default: memory \
             only.")
  in
  let cache_mb_arg =
    Arg.(
      value & opt int 256
      & info [ "cache-mb" ] ~docv:"MB"
          ~doc:"Size bound for the disk cache tier, in MiB (LRU eviction).")
  in
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Max queued requests per client; further submissions get an \
             immediate $(b,busy) response instead of unbounded buffering.")
  in
  let max_inflight_arg =
    Arg.(
      value
      & opt int Server.Daemon.default_config.Server.Daemon.max_inflight
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Global pending-request budget across all clients. Above it \
             new solve work is shed with $(b,busy) + a retry-after hint, \
             while lint and verdict-cache hits keep being served inline \
             (degraded mode). 0 disables shedding.")
  in
  let breaker_arg =
    Arg.(
      value
      & opt int Server.Daemon.default_config.Server.Daemon.breaker_threshold
      & info [ "breaker" ] ~docv:"N"
          ~doc:
            "Circuit breaker: quarantine a request digest after $(docv) \
             consecutive worker crashes; quarantined requests are \
             rejected immediately with a retry-after hint until the \
             cooldown lets a probe through. 0 disables the breaker.")
  in
  let breaker_cooldown_arg =
    Arg.(
      value
      & opt float
          Server.Daemon.default_config.Server.Daemon.breaker_cooldown_ms
      & info [ "breaker-cooldown-ms" ] ~docv:"MS"
          ~doc:"Quarantine duration before the breaker half-opens.")
  in
  let watchdog_ms_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "watchdog-ms" ] ~docv:"MS"
          ~doc:
            "Fixed watchdog budget per request. Default: derived from each \
             request's own deadline/retry envelope (requests without a \
             deadline are not watched).")
  in
  let watchdog_grace_arg =
    Arg.(
      value
      & opt float Server.Daemon.default_config.Server.Daemon.watchdog_grace
      & info [ "watchdog-grace" ] ~docv:"X"
          ~doc:
            "Watchdog grace factor: at budget x $(docv) the request's \
             ambient budget is cancelled, at twice that the worker is \
             declared stuck, its request answered with a retryable error, \
             and the domain written off and replaced.")
  in
  let recycle_arg =
    Arg.(
      value
      & opt int Server.Daemon.default_config.Server.Daemon.recycle_after
      & info [ "recycle-after" ] ~docv:"N"
          ~doc:
            "Recycle a worker domain after $(docv) crashes on its slot \
             (suspect domain-local state). 0 disables recycling.")
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const
        (fun socket jobs cache_dir cache_mb queue timeout_ms retries faults
             max_inflight breaker breaker_cooldown_ms watchdog_ms
             watchdog_grace recycle_after ->
          with_faults faults @@ fun () ->
          let cfg =
            {
              Server.Daemon.default_config with
              Server.Daemon.socket_path = socket;
              workers = max 1 jobs;
              queue_bound = queue;
              cache_dir;
              cache_max_bytes = cache_mb * 1024 * 1024;
              timeout_ms;
              retries;
              max_inflight;
              breaker_threshold = breaker;
              breaker_cooldown_ms;
              watchdog_ms;
              watchdog_grace;
              recycle_after;
            }
          in
          Fmt.pr "daenerys: serving on %s (%d worker(s), cache: %s)@." socket
            (max 1 jobs)
            (match cache_dir with
            | Some d -> "memory + disk at " ^ d
            | None -> "memory only");
          match Server.Daemon.run cfg with
          | Ok () ->
              Fmt.pr "daenerys: daemon stopped@.";
              exit_ok
          | Error m -> fail_cli m)
      $ socket_arg $ jobs_arg $ cache_dir_arg $ cache_mb_arg $ queue_arg
      $ timeout_arg $ retries_arg $ faults_arg $ max_inflight_arg
      $ breaker_arg $ breaker_cooldown_arg $ watchdog_ms_arg
      $ watchdog_grace_arg $ recycle_arg)

(* The daemon either judged the request (wrong: exit 1) or was never
   successfully asked — dead, unreachable, or still shedding after the
   retry budget (gave up: exit 2). Conflating the two would let an
   outage masquerade as a failed verification. *)
let fail_unavailable msg =
  Fmt.epr "daenerys: %s@." msg;
  exit_gave_up

let client_target name : (Server.Protocol.target, string) result =
  if is_hl name then
    if Sys.file_exists name then
      (* Ship the source inline: daemon and client need not share a
         working directory. *)
      Ok (Server.Protocol.Source { file = name; source = read_file name })
    else Error ("no such file: " ^ name)
  else Ok (Server.Protocol.Entry name)

(* Fold per-request exit codes like [Render.exit_of_statuses]: a wrong
   program (1) dominates the verifier giving up (2). *)
let combine_exits a b = if a = exit_wrong || b = exit_wrong then exit_wrong else max a b

let client_cmd =
  let doc =
    "Drive a running daemon: verify suite entries or .hl files over the \
     socket, print the daemon's reports, and propagate its 0/1/2 exit \
     codes. CI and the test suite use this to exercise the warm path."
  in
  let names_arg = Arg.(value & pos_all string [] & info [] ~docv:"NAME") in
  let suite_flag =
    Arg.(
      value & flag
      & info [ "suite" ] ~doc:"Verify every suite entry through the daemon.")
  in
  let stats_flag =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print the daemon's statistics (scheduler + cache) as JSON.")
  in
  let shutdown_flag =
    Arg.(
      value & flag
      & info [ "shutdown" ]
          ~doc:"Ask the daemon to drain in-flight work and exit.")
  in
  (* Per-request override: absent means "use the daemon's default",
     unlike the local [retries_arg] whose default is 0. *)
  let retries_opt_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Per-request retry override; defaults to the daemon's \
             configured retries.")
  in
  let retry_arg =
    Arg.(
      value
      & opt int Server.Client.default_retry.Server.Client.attempts
      & info [ "retry" ] ~docv:"N"
          ~doc:
            "Client-side resilience: total attempts per request. Between \
             attempts the client reconnects if needed and sleeps a \
             jittered exponential backoff (or the daemon's retry-after \
             hint, whichever is larger). Retried operations are \
             idempotent, so this never changes a verdict — only whether \
             one is obtained.")
  in
  let no_retry_flag =
    Arg.(
      value & flag
      & info [ "no-retry" ]
          ~doc:
            "Fail fast: one attempt per request, no reconnect. Same as \
             $(b,--retry 1).")
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const
        (fun socket names suite stats shutdown json options timeout_ms
             retries retry no_retry ->
          let retry =
            {
              Server.Client.default_retry with
              Server.Client.attempts = (if no_retry then 1 else max 1 retry);
            }
          in
          let s = Server.Client.open_session ~retry socket in
          Fun.protect
            ~finally:(fun () -> Server.Client.close_session s)
            (fun () ->
              let names =
                if suite then
                  List.map (fun (e : Pr.entry) -> e.Pr.name) Pr.all
                else names
              in
              if stats then
                match
                  Server.Client.request s (Server.Protocol.stats_request ())
                with
                | Error (Server.Client.Fatal m) -> fail_cli m
                | Error (Server.Client.Unavailable m) -> fail_unavailable m
                | Ok resp ->
                    Fmt.pr "%s@."
                      (Json.to_string
                         (Option.value ~default:resp
                            (Json.member "stats" resp)));
                    exit_ok
              else if names = [] && not shutdown then
                fail_cli
                  "nothing to do: give entry NAMEs, .hl files, --suite, \
                   --stats or --shutdown"
              else
                let verify_one name =
                  match client_target name with
                  | Error m ->
                      Fmt.epr "daenerys: %s@." m;
                      exit_wrong
                  | Ok target -> (
                      match
                        Server.Client.request s
                          Server.Protocol.(
                            json_of_request
                              (Verify
                                 { id = Json.Null; target; options; timeout_ms;
                                   retries }))
                      with
                      | Error (Server.Client.Fatal m) ->
                          Fmt.epr "daenerys: %s: %s@." name m;
                          exit_wrong
                      | Error (Server.Client.Unavailable m) ->
                          Fmt.epr "daenerys: %s: %s@." name m;
                          exit_gave_up
                      | Ok resp ->
                          if json then
                            Fmt.pr "%s@."
                              (Json.to_string
                                 (Option.value ~default:resp
                                    (Json.member "report" resp)))
                          else
                            Fmt.pr "%s"
                              (Option.value ~default:""
                                 (Json.str_member "output" resp));
                          Option.value ~default:exit_wrong
                            (Json.int_member "exit" resp))
                in
                let ec =
                  List.fold_left
                    (fun acc n -> combine_exits acc (verify_one n))
                    exit_ok names
                in
                if shutdown then
                  match
                    Server.Client.request s
                      (Server.Protocol.shutdown_request ())
                  with
                  | Error (Server.Client.Fatal m) -> fail_cli m
                  | Error (Server.Client.Unavailable m) -> fail_unavailable m
                  | Ok _ ->
                      Fmt.pr "daenerys: shutdown acknowledged@.";
                      ec
                else ec))
          $ socket_arg $ names_arg $ suite_flag $ stats_flag $ shutdown_flag
          $ json_flag $ options_term $ timeout_arg $ retries_opt_arg
          $ retry_arg $ no_retry_flag)

let () =
  let doc = "a destabilized separation-logic verifier" in
  let info = Cmd.info "daenerys" ~version:"0.1" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            suite_cmd;
            verify_cmd;
            lint_cmd;
            list_cmd;
            run_cmd;
            serve_cmd;
            client_cmd;
          ]))
