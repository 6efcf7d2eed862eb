(* The repository's benchmark: three workloads, end-to-end metrics from
   an untraced run, a per-layer table from a traced run. README.md says
   why each workload exists and which layer metric should move which
   end-to-end metric.

     perfbench.exe --workload corpus_batch --seed 1 --seconds 15 --trace 0

   The last line of standard output is the result object; everything
   before it is a human-readable report. *)

module E = Engine
module V = Verifier.Exec
module C = Suite.Corpus
module Pr = Suite.Programs
module J = Server.Json
module SC = Server.Client
module SP = Server.Protocol

let now = Unix.gettimeofday
let process_start = now ()
let say fmt = Printf.ksprintf (fun s -> print_string s; flush stdout) fmt

(* ------------------------------------------------------------------ *)
(* Arguments and fixed parameters *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let daenerys = ref "_build/default/bin/daenerys.exe"
let examples_dir = ref "examples"
let workdir = ref ".perfbench"
let check_oracle = ref false

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME corpus_batch | suite_theory | daemon_edit");
    ("--seed", Arg.Set_int seed, "N input seed");
    ("--seconds", Arg.Float (fun s -> seconds := s), "S measured time");
    ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ("--daenerys", Arg.Set_string daenerys, "PATH the daenerys binary (daemon_edit)");
    ("--examples", Arg.Set_string examples_dir, "DIR the examples/*.hl directory");
    ("--workdir", Arg.Set_string workdir, "DIR sockets, caches and trace output");
    ("--check-oracle", Arg.Set check_oracle, " check the known-answer table covers --examples, then exit");
  ]

(* Batch size for corpus_batch: big enough that engine work outside
   the pool shows (it grows faster than the batch), small enough for
   about one second per call. *)
let batch_size = 9000

(* Batch size of a corpus_batch set-up round: enough to force lazy
   set-up and run every layer a batch reaches, small enough that the
   rounds take seconds. *)
let warmup_size = 2000

(* Corpus procedures replayed through the layers in a traced run. *)
let replay_size = 1000

(* daemon_edit mix: one request in [edit_every] is an edit. A cycle of
   the mix edits every example once; a window holds [window_cycles]
   cycles, enough that its tail percentile has ten requests beyond it. *)
let edit_every = 5
let window_cycles = 4

(* Set-up is repeated this many times and its median reported. *)
let setup_rounds = 7

(* Cores the host offers, for the provenance stamp. The workloads
   verify on one domain (the engine's default) and drive the daemon over
   one connection: on a host whose cores are shared with neighbours, a
   second domain waits on a preempted first at every stop-the-world
   collection, and a second connection queues behind the first, so
   either makes run-to-run spread follow the neighbours instead of the
   code. run.py pins the process, and the daemon, to one CPU, and
   passes the count from before. *)
let nproc =
  match Sys.getenv_opt "PERFBENCH_NPROC" with
  | Some n -> int_of_string n
  | None -> Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* Statistics *)

(** Nearest-rank percentile; [nan] on no samples. *)
let percentile p xs =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let i = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) i))

let median = percentile 50.0

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(** The highest percentile with at least ten samples beyond it, capped
    at p99. *)
let tail_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0)
    [ 99.0; 95.0; 90.0; 75.0 ]
  |> Option.value ~default:50.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(** Peak resident set ([VmHWM]) of a process, in MB. *)
let vm_hwm_mb pid =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %f kB" (fun kb -> kb /. 1024.0)
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* Operations and their known answers *)

(** On daemon_edit a hit re-sends an unchanged file and an edit sends a
    renamed one. On the batch workloads each program verdict is an
    operation: a hit is one the verifier proves, an edit one it must
    reject (the corpus's and suite's deliberately broken specs). *)
type kind = Hit | Edit

type sample = {
  kind : kind;
  ms : float;  (** latency of the operation *)
  procs : int;  (** procedures it decided *)
  traced : bool;  (** ran with span recording on *)
  at : float;  (** completion time, in seconds since measuring began *)
}

(** How operations went against their known answers. Every kind of
    failure is counted; none is retried away. *)
type tally = {
  mutable attempted : int;
  mutable mismatches : int;  (** verdict differs from the known answer *)
  mutable abstained : int;  (** Crashed, Timeout or Resource_out *)
  mutable errors : int;  (** error or busy reply after retries *)
}

let tally () = { attempted = 0; mismatches = 0; abstained = 0; errors = 0 }
let failed t = t.mismatches + t.abstained + t.errors

let merge_tally a b =
  {
    attempted = a.attempted + b.attempted;
    mismatches = a.mismatches + b.mismatches;
    abstained = a.abstained + b.abstained;
    errors = a.errors + b.errors;
  }

(** Judge one program's outcomes against its known answer. *)
let judge t ~expect_fail (outcomes : V.outcome list) =
  t.attempted <- t.attempted + 1;
  if outcomes = [] then t.errors <- t.errors + 1
  else if not (List.for_all V.decided outcomes) then
    t.abstained <- t.abstained + 1
  else
    let failed =
      List.exists (function V.Failed _ -> true | _ -> false) outcomes
    in
    if failed <> expect_fail then t.mismatches <- t.mismatches + 1

(* ------------------------------------------------------------------ *)
(* Counters read at span boundaries *)

let smt_args (d : Smt.Stats.t) =
  Smt.Stats.
    [
      ("session.checks", fi d.session_checks);
      ("session.fallbacks", fi d.session_fallbacks);
      ("theory.checks", fi d.theory_checks);
      ("theory.lia_checks", fi d.lia_checks);
      ("theory.euf_checks", fi d.euf_checks);
      ("theory.blocking_clauses", fi d.blocking_clauses);
      ("theory.eq_budget_outs", fi d.fuel_eq_budget);
      ("sat.decisions", fi d.sat_decisions);
      ("sat.conflicts", fi d.sat_conflicts);
      ("sat.propagations", fi d.sat_propagations);
      ("solver.queries", fi d.queries);
      ("solver.solve_ms", d.solve_ms);
    ]

let vstats_args (v : Verifier.Vstats.t) =
  Verifier.Vstats.
    [
      ("exec.obligations", fi v.obligations);
      ("exec.chunk_matches", fi v.chunk_matches);
      ("exec.branches", fi v.branches);
      ("exec.inv_opens", fi v.inv_opens);
      ("absint.discharged", fi v.absint_discharged);
      ("absint.abstained", fi v.absint_abstained);
    ]

let diff_args a b = List.map2 (fun (k, x) (_, y) -> (k, x -. y)) a b

(** [f] in a span named [name] that carries the calling domain's solver
    counter delta and the delta of the verifier counters [vstats]. *)
let counted_span ~vstats name f =
  let s0 = Smt.Stats.snapshot () and v0 = vstats_args vstats in
  Span.with_ name f ~args:(fun _ ->
      smt_args (Smt.Stats.diff (Smt.Stats.snapshot ()) s0)
      @ diff_args (vstats_args vstats) v0)

(* ------------------------------------------------------------------ *)
(* Results *)

type result = {
  setup_rounds : float list;  (** seconds per set-up round *)
  measured : (string * float) list;
      (** [procs_per_s], [req_per_s], [hit_p50_ms], [edit_p50_ms],
          [req_tail_ms] *)
  tally : tally;
  rss_mb : float;  (** peak RSS of the process that verifies *)
  overhead : float;  (** traced over untraced median latency, minus 1 *)
  layer : (string * float) list;  (** per-layer metrics (traced run) *)
}

let end_to_end (r : result) =
  (("setup_s", median r.setup_rounds) :: r.measured) @ [ ("peak_rss_mb", r.rss_mb) ]

let ms_of k samples =
  List.filter_map (fun s -> if s.kind = k then Some s.ms else None) samples

(** End-to-end figures are computed per window — one [verify_programs]
    call on the batch workloads, one cycle of the request mix on
    daemon_edit — and reported at the run's best window: the highest
    rate, the lowest latency. Every window of a workload holds the same
    mix of work, and on a shared host the neighbours slow the memory
    system, and with it whole stretches of windows, by tens of percent
    for seconds to minutes at a time; the best window follows the code
    as long as some part of the run escapes them.

    Within a window, hit latency is the median and the tail is the
    highest percentile with ten samples beyond it. Edit latency is the
    mean: edits cover files whose costs differ by orders of magnitude,
    so a median sits in a gap between two files' costs and jumps
    between them. *)
let window_figures secs (ss : sample list) =
  let rate f = fi (List.fold_left (fun n s -> n + f s) 0 ss) /. secs in
  [
    ("procs_per_s", rate (fun s -> s.procs));
    ("req_per_s", rate (fun _ -> 1));
    ("hit_p50_ms", median (ms_of Hit ss));
    ("edit_p50_ms", mean (ms_of Edit ss));
    ("req_tail_ms", percentile (tail_percentile (List.length ss)) (List.map (fun s -> s.ms) ss));
  ]

(** Each figure at its best over [windows] (lists of
    {!window_figures}). *)
let best_window (windows : (string * float) list list) =
  List.map
    (fun (k, _) ->
      let higher = String.ends_with ~suffix:"_per_s" k in
      ( k,
        List.map (List.assoc k) windows
        |> List.filter Float.is_finite
        |> percentile (if higher then 100.0 else 0.0) ))
    (window_figures 1.0 [])

(** Median latency of the traced operations over that of the untraced
    ones, minus 1; [ops] pairs each latency with whether it was traced. *)
let tracing_overhead ops =
  let p50 on = median (List.filter_map (fun (t, ms) -> if t = on then Some ms else None) ops) in
  (p50 true /. p50 false) -. 1.0

let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  match name with
  | "setup_s" -> "s"
  | "procs_per_s" -> "procs/s"
  | "req_per_s" -> "req/s"
  | "peak_rss_mb" -> "MB"
  | "parser.us_per_kb" -> "us/KB"
  | "gc.minor_mwords" -> "Mwords"
  | _ when ends "_ms" || ends "_ms_sum" -> "ms"
  | _ when ends "_ratio" || ends "_rate" || ends "_share" || ends "efficiency" ->
      "fraction"
  | _ -> "count"

let print_result ~correct (t : tally) metrics =
  let num v = J.Raw (Printf.sprintf "%.17g" v) in
  let metrics =
    List.map
      (fun (k, v) -> (k, J.Obj [ ("value", num v); ("unit", J.Str (unit_of k)) ]))
      metrics
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Num (fi t.attempted));
            ("failed", J.Num (fi (failed t)));
            ("metrics", J.Obj metrics);
          ]))

(* ------------------------------------------------------------------ *)
(* Layer replay (traced run only)

   The engine runs [verify_proc] inside its pool and the daemon runs
   its front end in another process, so per-layer spans come from
   replaying the workload's inputs through each layer's public
   function on this domain. The replay set is fixed by the seed, so
   its counts repeat exactly. *)

type replay_input =
  | Program of V.program
  | Source of string * string  (** file name, surface text; linted *)

let replay (inputs : replay_input list) =
  let vs = Verifier.Vstats.create () in
  let kb = ref 0.0 and diags = ref 0 and proc_ms = ref [] in
  let gc0 = Gc.quick_stat () and tp0 = Smt.Term.pool_stats () in
  let exec prog =
    List.iter
      (fun p ->
        let t0 = now () in
        ignore (counted_span ~vstats:vs "exec" (fun () -> V.verify_proc ~stats:vs prog p));
        proc_ms := ((now () -. t0) *. 1000.0) :: !proc_ms)
      prog.V.procs
  in
  Span.with_ "replay" (fun () ->
      List.iter
        (function
          | Program prog -> exec prog
          | Source (file, src) ->
              kb := !kb +. (fi (String.length src) /. 1024.0);
              let sp =
                Span.with_ "parser" (fun () -> Heaplang.Parser.parse_program ~file src)
              in
              let prog, _ = Span.with_ "elab" (fun () -> Verifier.Elab.program sp) in
              let ds =
                Span.with_ "lint" (fun () ->
                    Analysis.analyze_program ~name:file ~absint:false prog)
                @ Span.with_ "absint" (fun () ->
                      Analysis.Absint.check_program ~unit_name:file prog)
              in
              diags := !diags + List.length ds;
              (* The daemon gates programs with lint errors off the
                 verifier. *)
              if not (Diag.has_errors ds) then exec prog)
        inputs);
  let gc1 = Gc.quick_stat () and tp1 = Smt.Term.pool_stats () in
  let hits = tp1.Smt.Term.pool_hits - tp0.Smt.Term.pool_hits in
  let lookups = hits + tp1.Smt.Term.pool_misses - tp0.Smt.Term.pool_misses in
  [
    ("parser.kb", !kb);
    ("lint.diags", fi !diags);
    ("exec.proc_p50_ms", median !proc_ms);
    ("exec.proc_p99_ms", percentile 99.0 !proc_ms);
    ("term.pool_size", fi tp1.Smt.Term.pool_size);
    ("term.pool_hit_rate", ratio (fi hits) (fi lookups));
    ("gc.minor_mwords", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6);
    ("gc.major_collections", fi (gc1.Gc.major_collections - gc0.Gc.major_collections));
  ]

(* ------------------------------------------------------------------ *)
(* The batch workloads: corpus_batch and suite_theory *)

(** What a run keeps of one call: not the report, whose outcomes would
    pile up over the run and make peak memory follow its length. *)
type call = {
  call_ms : float;
  stats : E.stats;
  job_ms : float;  (** summed over the call's programs *)
  figures : (string * float) list;  (** {!window_figures} of the call *)
  traced_call : bool;
}

(** One [verify_programs] call at default config (one domain) over
    named programs with known answers. *)
let verify_batch ~traced t (progs : (string * V.program * bool) list) =
  let config = E.default_config in
  let input = List.map (fun (n, p, _) -> (n, p)) progs in
  let t0 = now () in
  let report =
    Span.with_ "engine.verify_programs" (fun () -> E.verify_programs ~config input)
  in
  let call_ms = (now () -. t0) *. 1000.0 in
  let samples =
    List.map2
      (fun (name, _, expect_fail) (g : E.group_result) ->
        let outcomes = List.map snd g.E.outcomes in
        judge t ~expect_fail (if String.equal name g.E.group then outcomes else []);
        {
          kind = (if expect_fail then Edit else Hit);
          ms = g.E.ms;
          procs = List.length (List.filter V.decided outcomes);
          traced;
          at = 0.0;
        })
      progs report.E.groups
  in
  {
    call_ms;
    stats = report.E.stats;
    job_ms = List.fold_left (fun a (s : sample) -> a +. s.ms) 0.0 samples;
    figures = window_figures (call_ms /. 1000.0) samples;
    traced_call = traced;
  }

let engine_layer (calls : call list) =
  let n = fi (max 1 (List.length calls)) in
  let sum f = List.fold_left (fun a c -> a +. f c.stats c) 0.0 calls in
  let jobs_ms _ c = c.job_ms in
  let capacity (s : E.stats) _ = fi s.E.pool.E.Pool.domains *. s.E.wall_ms in
  [
    ("engine.pool_wall_ms", sum (fun s _ -> s.E.wall_ms) /. n);
    ("engine.job_ms_sum", sum jobs_ms /. n);
    ("engine.parallel_efficiency", ratio (sum jobs_ms) (sum capacity));
    ("engine.outside_pool_ms", sum (fun s c -> c.call_ms -. s.E.wall_ms) /. n);
    ("engine.steals", sum (fun s _ -> fi s.E.pool.E.Pool.steals) /. n);
    ("vc_cache.hits", sum (fun s _ -> fi (s.E.cache_hits + s.E.cache_disk_hits)));
    ("vc_cache.misses", sum (fun s _ -> fi s.E.cache_misses));
  ]

(** Set up (inputs [-1], [-2], ...; each round one untimed pass, so
    lazy set-up finishes and the term pool warms), then time
    [verify_programs] calls on inputs [0], [1], ... for [--seconds].
    Each call starts from a collected heap, so garbage from the last one
    is not charged to it. In a traced run every other call is recorded in a span,
    which gives the tracing overhead, and [inputs 0] is replayed
    through the layers. *)
let batch_workload ~(inputs : int -> (string * V.program * bool) list) ~traced =
  let t = tally () and warm = tally () in
  let rounds =
    Span.with_ "setup" (fun () ->
        List.init setup_rounds (fun r ->
            let t0 = now () in
            ignore (verify_batch ~traced:false warm (inputs (-r - 1)));
            now () -. t0))
  in
  let t0 = now () in
  let calls =
    Span.with_ "load" (fun () ->
        let rec go i acc =
          if i >= 2 && now () -. t0 >= !seconds then acc
          else begin
            let progs = inputs i in
            Gc.full_major ();
            let on = traced && i mod 2 = 0 in
            Span.set_recording on;
            let c = verify_batch ~traced:on t progs in
            Span.set_recording traced;
            say "call %d: %d programs in %.1f ms, pool %.1f ms\n" i
              (List.length progs) c.call_ms c.stats.E.wall_ms;
            go (i + 1) (c :: acc)
          end
        in
        go 0 [])
  in
  let layer =
    if not traced then []
    else
      replay
        (List.filteri (fun i _ -> i < replay_size) (inputs 0)
        |> List.map (fun (_, p, _) -> Program p))
      @ engine_layer calls
  in
  {
    setup_rounds = rounds;
    measured = best_window (List.map (fun c -> c.figures) calls);
    tally = merge_tally t warm;
    rss_mb = vm_hwm_mb "self";
    overhead = tracing_overhead (List.map (fun c -> (c.traced_call, c.call_ms)) calls);
    layer;
  }

let corpus_inputs i =
  C.generate ~seed:((!seed * 1000) + i) ~size:(if i < 0 then warmup_size else batch_size)
  |> List.map (fun (s : C.spec) -> (s.C.name, s.C.program, s.C.expect_fail))

(* Copies of the suite per suite_theory sweep: a sweep, one window,
   lasts about half a second and its tail percentile (p95) has ten
   programs beyond it. *)
let suite_copies = 8

(** [suite_copies] copies of every suite entry, in a seeded order,
    under names unique to sweep [i]. *)
let suite_inputs i =
  let rng = Random.State.make [| !seed; i |] in
  List.concat_map
    (fun k ->
      List.map
        (fun (e : Pr.entry) ->
          (Printf.sprintf "%s#%d.%d" e.Pr.name i k, e.Pr.prog, e.Pr.expect_fail))
        Pr.all)
    (List.init suite_copies Fun.id)
  |> List.map (fun p -> (Random.State.bits rng, p))
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(* ------------------------------------------------------------------ *)
(* daemon_edit *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(** [src] cut into maximal runs of identifier and other characters;
    [true] marks an identifier. *)
let runs src =
  let n = String.length src in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let id = is_ident_char src.[i] in
      let j = ref i in
      while !j < n && is_ident_char src.[!j] = id do incr j done;
      go !j ((id, String.sub src i (!j - i)) :: acc)
  in
  go 0 []

(** Rename every occurrence of the identifier [old] to [fresh]. *)
let rename src ~old ~fresh =
  runs src
  |> List.map (fun (id, w) -> if id && String.equal w old then fresh else w)
  |> String.concat ""

(** Names declared by [procedure NAME(...)]. *)
let proc_names src =
  let rec go = function
    | "procedure" :: name :: rest -> name :: go rest
    | _ :: rest -> go rest
    | [] -> []
  in
  go (List.filter_map (fun (id, w) -> if id then Some w else None) (runs src))

type example = {
  file : string;
  source : string;
  procs : string list;
  expect_fail : bool;
}

let load_examples () =
  List.map
    (fun (file, answer) ->
      let source = read_file (Filename.concat !examples_dir file) in
      { file; source; procs = proc_names source; expect_fail = answer = Oracle.Fails })
    Oracle.table

let live_daemons : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_daemons)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

type daemon = { pid : int; tag : string }

let socket d = d.tag ^ ".sock"

(** Start [daenerys serve] with its defaults (one worker) on a fresh
    socket and cache directory under [--workdir]. *)
let spawn_daemon round =
  let tag = Printf.sprintf "%s/d%d-%d" !workdir (Unix.getpid ()) round in
  List.iter rm_rf [ tag ^ ".sock"; tag ^ ".cache" ];
  let log = Unix.openfile (tag ^ ".log") [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process !daenerys
      [| !daenerys; "serve"; "--socket"; tag ^ ".sock"; "--cache-dir"; tag ^ ".cache" |]
      Unix.stdin log log
  in
  Unix.close log;
  live_daemons := pid :: !live_daemons;
  { pid; tag }

let connect d =
  match SC.connect_retry ~attempts:5000 ~delay:0.001 (socket d) with
  | Ok c -> c
  | Error m -> failwith ("daemon did not come up: " ^ m)

let stop_daemon d =
  (match SC.connect (socket d) with
  | Ok c ->
      ignore (SC.rpc c (SP.shutdown_request ()));
      SC.close c
  | Error _ -> Unix.kill d.pid Sys.sigkill);
  ignore (Unix.waitpid [] d.pid);
  live_daemons := List.filter (( <> ) d.pid) !live_daemons;
  List.iter rm_rf [ d.tag ^ ".sock"; d.tag ^ ".cache"; d.tag ^ ".log" ]

type reply = {
  ok : bool;
  retryable : bool;  (** busy, or a transient daemon-side failure *)
  cached : bool;
  server_ms : float;  (** the report's [wall_ms] *)
  vc_hits : int;
  vc_misses : int;
  outcomes : V.outcome list;
}

let error_reply =
  { ok = false; retryable = false; cached = false; server_ms = 0.0; vc_hits = 0;
    vc_misses = 0; outcomes = [] }

let parse_reply (v : J.t) =
  let b k = Option.value ~default:false (J.bool_member k v) in
  let report = J.member "report" v in
  let stat k =
    Option.value ~default:0.0
      (Option.bind (Option.bind report (J.member "stats")) (J.num_member k))
  in
  let outcome p =
    match Option.bind (J.member "outcome" p) (J.str_member "kind") with
    | Some "verified" -> V.Verified
    | Some "failed" -> V.Failed ""
    | k -> V.Timeout (Option.value ~default:"no outcome" k)
  in
  let list = function Some (J.List l) -> l | _ -> [] in
  {
    ok = b "ok";
    retryable = b "busy" || b "retryable";
    cached = b "cached";
    server_ms = stat "wall_ms";
    vc_hits = int_of_float (stat "cache_hits");
    vc_misses = int_of_float (stat "cache_misses");
    outcomes =
      List.concat_map
        (fun e -> List.map outcome (list (J.member "procs" e)))
        (list (Option.bind report (J.member "entries")));
  }

let judge_reply t ~expect_fail r =
  judge t ~expect_fail (if r.ok then r.outcomes else [])

type client_stats = {
  c_tally : tally;
  mutable c_samples : sample list;
  mutable server : (kind * float * float) list;  (** kind, client ms, server ms *)
  mutable busy : int;
  mutable retries : int;
  mutable vc_hits : int;
  mutable vc_misses : int;
}

let max_attempts = 20

(** One request, resent on busy or retryable replies. *)
let request cs conn req =
  let rec go attempt =
    let r =
      match Span.with_ "client.rpc" (fun () -> SC.rpc conn req) with
      | Ok v -> parse_reply v
      | Error _ -> error_reply
    in
    if r.retryable then cs.busy <- cs.busy + 1;
    if r.retryable && attempt < max_attempts then begin
      cs.retries <- cs.retries + 1;
      Unix.sleepf (0.001 *. fi attempt);
      go (attempt + 1)
    end
    else r
  in
  go 1

let verify_req (e : example) source =
  SP.verify_request ~lint:true (SP.Source { file = e.file; source })

(** A closed-loop client: each request is sent after the previous
    reply. Four in five re-send an unchanged file; the fifth renames
    one procedure of a file to a name never used before, so no cache
    keyed on the program can answer it while its known verdict stays
    the same. Hits and edits each walk a seeded permutation of the
    files, so every run sends the same mix of files. *)
let client d ~traced ~start ~id (examples : example array) =
  let rng = Random.State.make [| !seed; id |] in
  let perm = Array.copy examples in
  for i = Array.length perm - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- x
  done;
  let cs =
    { c_tally = tally (); c_samples = []; server = []; busy = 0; retries = 0;
      vc_hits = 0; vc_misses = 0 }
  in
  let conn = connect d in
  let n = ref 0 and walked = [| 0; 0 |] in
  while now () < start +. !seconds do
    let kind = if !n mod edit_every = edit_every - 1 then Edit else Hit in
    let k = if kind = Hit then 0 else 1 in
    let e = perm.(walked.(k) mod Array.length perm) in
    walked.(k) <- walked.(k) + 1;
    let source =
      match (kind, e.procs) with
      | Edit, (_ :: _ as ps) ->
          let old = List.nth ps (Random.State.int rng (List.length ps)) in
          rename e.source ~old ~fresh:(Printf.sprintf "%s_e%d_%d" old id !n)
      | _ -> e.source
    in
    incr n;
    let on = traced && !n mod 2 = 0 in
    Span.set_recording on;
    let t0 = now () in
    let r = request cs conn (verify_req e source) in
    let ms = (now () -. t0) *. 1000.0 in
    Span.set_recording traced;
    judge_reply cs.c_tally ~expect_fail:e.expect_fail r;
    if r.ok && not r.cached then begin
      cs.vc_hits <- cs.vc_hits + r.vc_hits;
      cs.vc_misses <- cs.vc_misses + r.vc_misses
    end;
    cs.c_samples <-
      { kind; ms; procs = List.length (List.filter V.decided r.outcomes); traced = on;
        at = now () -. start }
      :: cs.c_samples;
    cs.server <- (kind, ms, r.server_ms) :: cs.server
  done;
  SC.close conn;
  cs

let daemon_stats d =
  let c = connect d in
  let v = SC.rpc c (SP.stats_request ()) in
  SC.close c;
  match v with
  | Ok v -> Option.value ~default:J.Null (J.member "stats" v)
  | Error m -> failwith ("stats: " ^ m)

let stat path v =
  List.fold_left (fun v k -> Option.value ~default:J.Null (J.member k v)) v path
  |> J.to_num |> Option.value ~default:0.0

let daemon_edit ~traced =
  let examples = load_examples () in
  let warm = tally () in
  (* A set-up round: start the daemon and verify every example once
     through it on one connection (the warm-up pass, which also fills
     the verdict cache the hits read). *)
  let start round =
    let t0 = now () in
    let d = spawn_daemon round in
    let c = connect d in
    List.iter
      (fun e ->
        let r =
          match SC.rpc c (verify_req e e.source) with
          | Ok v -> parse_reply v
          | Error _ -> error_reply
        in
        judge_reply warm ~expect_fail:e.expect_fail r)
      examples;
    SC.close c;
    (d, now () -. t0)
  in
  let d, rounds =
    Span.with_ "setup" (fun () ->
        let rec go r acc =
          let d, s = start r in
          if r + 1 = setup_rounds then (d, List.rev (s :: acc))
          else begin
            stop_daemon d;
            go (r + 1) (s :: acc)
          end
        in
        go 0 [])
  in
  let st0 = daemon_stats d in
  let arr = Array.of_list examples in
  let start = now () in
  let css =
    Span.with_ "load" (fun () ->
        [ client d ~traced ~start ~id:0 arr ])
  in
  let samples = List.concat_map (fun cs -> cs.c_samples) css in
  let st1 = daemon_stats d in
  let rss_mb = vm_hwm_mb (string_of_int d.pid) in
  stop_daemon d;
  let layer =
    if not traced then []
    else
      let server = List.concat_map (fun cs -> cs.server) css in
      let overhead = List.map (fun (_, c, s) -> c -. s) server in
      let delta path = stat path st1 -. stat path st0 in
      let vhits = delta [ "cache"; "mem_hits" ] +. delta [ "cache"; "disk_hits" ] in
      let vmiss = delta [ "cache"; "misses" ] in
      let sum f = fi (List.fold_left (fun a cs -> a + f cs) 0 css) in
      replay (List.map (fun e -> Source (e.file, e.source)) examples)
      @ [
          ("vc_cache.hits", sum (fun cs -> cs.vc_hits));
          ("vc_cache.misses", sum (fun cs -> cs.vc_misses));
          ("verdict_cache.hits", vhits);
          ("verdict_cache.misses", vmiss);
          ("verdict_cache.hit_ratio", ratio vhits (vhits +. vmiss));
          ( "verdict_cache.lookup_ms",
            median (List.filter_map (fun (k, _, s) -> if k = Hit then Some s else None) server) );
          ("verdict_cache.disk_entries", stat [ "cache"; "disk_entries" ] st1);
          ("daemon.server_ms", median (List.map (fun (_, _, s) -> s) server));
          ("daemon.overhead_p50_ms", median overhead);
          ("daemon.overhead_p99_ms", percentile 99.0 overhead);
          ("daemon.busy", sum (fun cs -> cs.busy));
          ("daemon.retries", sum (fun cs -> cs.retries));
          ("daemon.crashes", delta [ "supervisor"; "crashes" ]);
          ("daemon.preempted", delta [ "supervisor"; "preempted" ]);
        ]
  in
  say "%d requests in %.0f s\n" (List.length samples) !seconds;
  {
    setup_rounds = rounds;
    measured =
      (* Windows of [window_cycles] cycles of the mix, so every window
         sends the same requests. The last, cut short by the deadline,
         is dropped. *)
      (let cycle = window_cycles * edit_every * Array.length arr in
       let a = Array.of_list (List.sort (fun x y -> compare x.at y.at) samples) in
       best_window
         (List.init (Array.length a / cycle) (fun w ->
              let before = if w = 0 then 0.0 else a.((w * cycle) - 1).at in
              window_figures
                (a.(((w + 1) * cycle) - 1).at -. before)
                (Array.to_list (Array.sub a (w * cycle) cycle)))));
    tally = List.fold_left (fun a cs -> merge_tally a cs.c_tally) warm css;
    rss_mb;
    overhead = tracing_overhead (List.map (fun s -> (s.traced, s.ms)) samples);
    layer;
  }

(* ------------------------------------------------------------------ *)
(* The traced run's per-layer metrics *)

(** Every workload reports all of these in a traced run; a layer the
    workload does not reach reads 0. *)
let per_layer_names =
  [
    "parser.self_ms"; "parser.us_per_kb"; "elab.self_ms"; "lint.self_ms";
    "lint.diags"; "absint.self_ms"; "absint.discharged";
    "absint.discharge_ratio"; "exec.self_ms"; "exec.proc_p50_ms";
    "exec.proc_p99_ms"; "exec.obligations"; "exec.chunk_matches";
    "exec.branches"; "exec.inv_opens"; "session.checks"; "session.fallbacks";
    "session.fallback_ratio"; "theory.checks"; "theory.lia_checks";
    "theory.euf_checks"; "theory.blocking_clauses"; "theory.eq_budget_outs";
    "sat.decisions"; "sat.conflicts"; "sat.propagations"; "solver.queries";
    "solver.solve_ms"; "term.pool_size"; "term.pool_hit_rate";
    "gc.minor_mwords"; "gc.major_collections"; "engine.pool_wall_ms";
    "engine.job_ms_sum"; "engine.parallel_efficiency";
    "engine.outside_pool_ms"; "engine.steals"; "vc_cache.hits";
    "vc_cache.misses"; "verdict_cache.hits"; "verdict_cache.misses";
    "verdict_cache.hit_ratio"; "verdict_cache.lookup_ms";
    "verdict_cache.disk_entries"; "daemon.server_ms";
    "daemon.overhead_p50_ms"; "daemon.overhead_p99_ms"; "daemon.busy";
    "daemon.retries"; "daemon.crashes"; "daemon.preempted"; "failed_share";
    "trace.wall_ms"; "trace.unattributed_ms"; "trace.overhead_share";
  ]

(** Layers each workload must reach: the traced run is marked incorrect
    when every metric of a hot layer reads 0. *)
let hot_layers = function
  | "corpus_batch" -> [ "absint"; "exec"; "term"; "engine" ]
  | "suite_theory" -> [ "exec"; "session"; "theory"; "sat"; "engine" ]
  | _ -> [ "parser"; "elab"; "lint"; "exec"; "session"; "theory"; "sat"; "verdict_cache"; "daemon" ]

let per_layer ~workload (r : result) =
  (* The root span runs from process start, so everything the process
     did is either inside a named span or reported as unattributed. *)
  let root =
    { Span.name = "perfbench"; tid = (Domain.self () :> int); start = process_start;
      stop = now (); args = [] }
  in
  Span.record root;
  let spans = Span.all () in
  let selfs = Span.self_times spans in
  let main = List.filter (fun ((s : Span.t), _) -> s.Span.tid = root.Span.tid) selfs in
  let self_ms name =
    1000.0
    *. List.fold_left
         (fun a ((s : Span.t), t) -> if String.equal s.Span.name name then a +. t else a)
         0.0 selfs
  in
  let wall_ms = 1000.0 *. (root.Span.stop -. root.Span.start) in
  let unattributed = self_ms "perfbench" in
  let attributed =
    List.fold_left
      (fun a ((s : Span.t), t) -> if s == root then a else a +. (1000.0 *. t))
      0.0 main
  in
  let balanced =
    Float.abs (attributed +. unattributed -. wall_ms) <= 1e-6 *. wall_ms
    && List.for_all (fun (_, t) -> t >= -1e-9) selfs
  in
  let exec k =
    List.fold_left
      (fun a (s : Span.t) ->
        if String.equal s.Span.name "exec" then
          a +. Option.value ~default:0.0 (List.assoc_opt k s.Span.args)
        else a)
      0.0 spans
  in
  let discharged = exec "absint.discharged" in
  let layer k = Option.value ~default:0.0 (List.assoc_opt k r.layer) in
  let derived =
    [
      ("parser.self_ms", self_ms "parser");
      ("parser.us_per_kb", ratio (1000.0 *. self_ms "parser") (layer "parser.kb"));
      ("elab.self_ms", self_ms "elab");
      ("lint.self_ms", self_ms "lint");
      ("absint.self_ms", self_ms "absint");
      ("absint.discharge_ratio", ratio discharged (discharged +. exec "absint.abstained"));
      ("exec.self_ms", self_ms "exec");
      ("session.fallback_ratio", ratio (exec "session.fallbacks") (exec "session.checks"));
      ("failed_share", ratio (fi (failed r.tally)) (fi r.tally.attempted));
      ("trace.wall_ms", wall_ms);
      ("trace.unattributed_ms", unattributed);
      ("trace.overhead_share", r.overhead);
    ]
  in
  let metrics =
    List.map
      (fun n ->
        ( n,
          match (List.assoc_opt n derived, List.assoc_opt n r.layer) with
          | Some v, _ | None, Some v -> v
          | None, None -> exec n ))
      per_layer_names
  in
  say "\nself time per span on the measuring domain (traced wall %.1f ms):\n" wall_ms;
  List.sort_uniq compare (List.map (fun ((s : Span.t), _) -> s.Span.name) main)
  |> List.iter (fun n ->
         let ss = List.filter (fun ((s : Span.t), _) -> String.equal s.Span.name n) main in
         let t = 1000.0 *. List.fold_left (fun a (_, t) -> a +. t) 0.0 ss in
         say "  %-24s %7d spans %12.3f ms %6.2f%%\n"
           (if n = "perfbench" then "unattributed" else n)
           (List.length ss) t (100.0 *. t /. wall_ms));
  say "accounting: %.3f ms attributed + %.3f ms unattributed = %.3f ms, wall %.3f ms: %s\n"
    attributed unattributed (attributed +. unattributed) wall_ms
    (if balanced then "ok" else "VIOLATED");
  let cold =
    List.filter
      (fun l ->
        not
          (List.exists
             (fun (n, v) -> String.starts_with ~prefix:(l ^ ".") n && v <> 0.0)
             metrics))
      (hot_layers workload)
  in
  if cold <> [] then say "hot layers with no time or counts: %s\n" (String.concat ", " cold);
  say "\nper-layer metrics:\n";
  List.iter (fun (n, v) -> say "  %-28s %.6g %s\n" n v (unit_of n)) metrics;
  let file = Printf.sprintf "%s/trace-%s-seed%d.json" !workdir workload !seed in
  let oc = open_out_bin file in
  output_string oc (J.to_string (Span.to_chrome spans));
  close_out oc;
  say "trace written to %s (Chrome trace-event JSON)\n" file;
  (metrics, balanced && cold = [])

(* ------------------------------------------------------------------ *)
(* Provenance and main *)

let provenance () =
  let env k = Option.value ~default:"unknown" (Sys.getenv_opt k) in
  J.Obj
    [
      ("workload", J.Str !workload);
      ("seed", J.Num (fi !seed));
      ("seconds", J.Num !seconds);
      ("trace", J.Num (fi !trace));
      ("nproc", J.Num (fi nproc));
      ("pinned_cpu", J.Str (env "PERFBENCH_CPU"));
      ("ocaml", J.Str Sys.ocaml_version);
      ("profile", J.Str Build_info.profile);
      ("commit", J.Str (env "PERFBENCH_COMMIT"));
      ("source_digest", J.Str (env "PERFBENCH_SOURCE_DIGEST"));
      ( "input",
        J.Str
          (match !workload with
          | "corpus_batch" ->
              Printf.sprintf "batches of %d corpus procedures at -j 1" batch_size
          | "suite_theory" ->
              Printf.sprintf "sweeps of %d copies of all %d suite entries at -j 1"
                suite_copies (List.length Pr.all)
          | _ ->
              Printf.sprintf
                "1 closed-loop connection to a 1-worker daemon, 1 request in %d an \
                 edit, %d examples"
                edit_every (List.length Oracle.table)) );
    ]

let usage = "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !check_oracle then begin
    let missing, gone = Oracle.coverage !examples_dir in
    List.iter (Printf.eprintf "%s: no known answer in perfbench/oracle.ml\n") missing;
    List.iter (Printf.eprintf "%s: in perfbench/oracle.ml but not on disk\n") gone;
    exit (if missing = [] && gone = [] then 0 else 1)
  end;
  let run =
    match !workload with
    | "corpus_batch" -> batch_workload ~inputs:corpus_inputs
    | "suite_theory" -> batch_workload ~inputs:suite_inputs
    | "daemon_edit" -> daemon_edit
    | w ->
        Printf.eprintf "unknown workload %S\n%s\n" w usage;
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline usage;
    exit 2
  end;
  (try Unix.mkdir !workdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (* A daemon that dies mid-request must surface as an error reply, not
     kill the benchmark. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let traced = !trace = 1 in
  Atomic.set Span.default traced;
  Span.set_recording traced;
  say "provenance: %s\n" (J.to_string (provenance ()));
  let r = run ~traced in
  let t = r.tally in
  say "verdicts: %d attempted, %d wrong, %d abstained, %d errors\n" t.attempted
    t.mismatches t.abstained t.errors;
  let e2e = end_to_end r in
  List.iter (fun (k, v) -> say "  %-14s %.6g %s\n" k v (unit_of k)) e2e;
  let metrics, ok = if traced then per_layer ~workload:!workload r else (e2e, true) in
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) metrics in
  if not finite then say "a metric is not a finite number\n";
  print_result ~correct:(ok && finite && failed t = 0) t metrics
