(** Verification jobs: the unit of work the engine schedules.

    Suite- and file-level verification decomposes into one job per
    procedure — procedures share no mutable state (each gets a fresh
    symbolic state, gensym, and {!Verifier.Vstats} instance), which is
    what makes per-procedure verification embarrassingly parallel. *)

module V = Verifier.Exec

(* Backtraces must be recorded for [Crashed] outcomes to carry one;
   negligible cost when nothing raises. *)
let () = Printexc.record_backtrace true

type t = {
  group : string;  (** owning program (suite entry / file) *)
  proc : V.proc;
  prog : V.program;  (** the whole program, for callee specs *)
  options : Options.t;  (** [absint] and [seed] reach the verifier *)
  srcmap : Diag.srcmap;
      (** source spans for the program's spec clauses; [[]] for
          hand-built programs *)
}

type result = {
  job : t;
  outcome : V.outcome;
  vstats : Verifier.Vstats.t;
  ms : float;  (** wall-clock verification time for this job *)
  attempts : int;  (** 1 = first try; >1 means budget-escalated retries *)
}

(** One job per procedure of [prog], in declaration order. *)
let of_program ?(options = Options.default) ?(srcmap = []) ~group
    (prog : V.program) : t list =
  List.map (fun proc -> { group; proc; prog; options; srcmap }) prog.V.procs

(** Each retry multiplies the previous deadline by this factor, so a
    job that timed out narrowly gets decisively more room instead of
    timing out again a hair later. *)
let escalation = 8.0

let run_once (job : t) vstats ~timeout_ms : V.outcome =
  let verify () =
    (* Chaos-testing hook inside the guarded region: a worker-level
       fault surfaces as [Crashed], exercising the engine's promise
       that one dying job cannot strand the queue or flip a verdict. *)
    Stdx.Fault.inject Stdx.Fault.Pool;
    V.verify_proc ~absint:job.options.absint ~seed:job.options.seed
      ~srcmap:job.srcmap ~stats:vstats job.prog job.proc
  in
  match
    match timeout_ms with
    | None -> verify ()
    | Some ms ->
        (* Chain to the ambient budget rather than shadowing it: the
           daemon's supervisor installs a cancellation-only budget
           around the whole request, and the watchdog's soft preemption
           (cancel from another domain) must reach the solver loops
           through this per-attempt deadline budget. *)
        Stdx.Budget.with_budget
          (Stdx.Budget.create ?parent:(Stdx.Budget.current ()) ~timeout_ms:ms ())
          verify
  with
  | o -> o
  | exception
      Stdx.Budget.Exhausted
        ((Stdx.Budget.Deadline _ | Stdx.Budget.Cancelled) as r) ->
      (* A poll point can fire between [verify_proc]'s own handler and
         here (e.g. inside a [Fun.protect] finalizer); same outcome. *)
      let s = Smt.Stats.current () in
      s.Smt.Stats.deadline_stops <- s.Smt.Stats.deadline_stops + 1;
      V.Timeout (Stdx.Budget.reason_to_string r)
  | exception Stdx.Budget.Exhausted (Stdx.Budget.Fuel _ as r) ->
      V.Resource_out (Stdx.Budget.reason_to_string r)
  | exception e ->
      (* Anything else — including [Out_of_memory] and [Stack_overflow],
         which earlier versions silently conflated with [Failed] — is a
         crash of the verifier, not a judgement about the program. *)
      let backtrace = Printexc.get_backtrace () in
      V.Crashed { V.exn = Printexc.to_string e; backtrace }

(** Run a job; never raises. [timeout_ms] bounds one attempt's wall
    clock; on [Timeout] or a fuel [Resource_out] the job is retried up
    to [retries] times with the deadline escalated by {!escalation}
    per attempt (graceful degradation in the other direction: given
    more room, most resource-outs resolve to a real verdict). [Failed],
    [Verified], [Crashed] and the deterministic
    {!V.int_out_of_range} refusal are never retried — the first two
    are judgements, a crash is a bug to surface, not to mask, and no
    budget moves an integer back into range. *)
let run ?timeout_ms ?(retries = 0) (job : t) : result =
  let vstats = Verifier.Vstats.create () in
  let t0 = Unix.gettimeofday () in
  let rec attempt n ~timeout_ms =
    let outcome = run_once job vstats ~timeout_ms in
    match outcome with
    | V.Resource_out m when String.equal m V.int_out_of_range ->
        (outcome, n)
    | V.Timeout _ | V.Resource_out _ when n <= retries ->
        attempt (n + 1)
          ~timeout_ms:(Option.map (fun ms -> ms *. escalation) timeout_ms)
    | _ -> (outcome, n)
  in
  let outcome, attempts = attempt 1 ~timeout_ms in
  { job; outcome; vstats; ms = (Unix.gettimeofday () -. t0) *. 1000.0; attempts }
