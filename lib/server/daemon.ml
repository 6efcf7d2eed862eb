(** The [daenerys serve] daemon: verification as a service.

    A long-lived process listening on a Unix-domain socket, speaking
    the newline-delimited JSON protocol of {!Protocol}. The main
    domain runs a [select] loop (accept connections, read request
    lines, write immediate responses); verification and lint work is
    submitted to a {!Scheduler} — a warm pool of worker domains with
    fair FIFO-per-client queues and bounded-queue backpressure — under
    the {!Supervisor}'s guard.

    Every verdict comes from the ordinary engine pipeline
    ([Engine.verify_programs] with [domains = 1] on the worker's own
    domain), so daemon verdicts are the CLI's verdicts by
    construction; the per-request deadline/retry budgets of PR 5 apply
    unchanged ([timeout_ms]/[retries] per request, with daemon-level
    defaults). All requests share one two-tier verdict cache
    ({!Engine.Vc_cache}): the in-memory tier serves repeats within this
    daemon's lifetime, the on-disk tier survives restarts. A verify
    request probes it first, keyed on its options and its target (an
    inline program by file name {e and} source text); an entry holds
    the group's outcomes and its rendered lint findings, so a hit is
    answered from the entry alone — no parse, elaboration, lint,
    abstract interpretation or solver work, in this daemon generation
    or the next.

    Failure behavior, in one line: anything that goes wrong with a
    request (unknown entry, parse error, injected socket fault, full
    queue, worker exception, a worker wedged past its budget) becomes
    an {e error response on that request}; it never takes down the
    daemon and never changes another request's verdict. The PR 10
    supervision layer enforces this against the worker itself: crashes
    are isolated and counted, crashing digests are circuit-broken,
    stuck workers are written off by the watchdog and replaced, and a
    global in-flight budget sheds load (with lint and verdict-cache
    hits still served inline in degraded mode).

    Slow peers cannot wedge the loop in either direction: request
    lines may arrive a byte at a time (buffered per connection until
    the newline), and responses to a peer that stopped reading park in
    a per-connection write buffer flushed as [select] reports
    writability — a slow consumer costs memory up to a cap, never a
    blocked worker or main loop.

    A [shutdown] request — or SIGTERM/SIGINT — stops admissions,
    drains everything already accepted (their responses are written
    first), and exits cleanly; SIGHUP logs a stats snapshot to
    stderr. *)

module V = Verifier.Exec
module E = Engine
module Pr = Suite.Programs

type config = {
  socket_path : string;
  workers : int;  (** warm worker domains *)
  queue_bound : int;  (** max queued requests per client; 0 rejects all *)
  cache_dir : string option;  (** on-disk verdict cache; [None] = memory only *)
  cache_max_bytes : int;  (** disk-tier LRU bound *)
  cache_fingerprint : string option;
      (** build-fingerprint override (tests simulate rebuilds) *)
  timeout_ms : float option;  (** default per-request deadline *)
  retries : int;  (** default per-request retries *)
  max_inflight : int;  (** global pending budget; 0 = unbounded *)
  breaker_threshold : int;  (** digest quarantine after N crashes; 0 = off *)
  breaker_cooldown_ms : float;  (** quarantine duration *)
  watchdog_ms : float option;  (** fixed watchdog budget override *)
  watchdog_grace : float;  (** budget multiplier before preemption *)
  recycle_after : int;  (** worker crashes before domain recycle; 0 = off *)
}

let default_config =
  {
    socket_path = Filename.concat (Filename.get_temp_dir_name ()) "daenerys.sock";
    workers = 1;
    queue_bound = 64;
    cache_dir = None;
    cache_max_bytes = 256 * 1024 * 1024;
    cache_fingerprint = None;
    timeout_ms = None;
    retries = 0;
    max_inflight = 256;
    breaker_threshold = 3;
    breaker_cooldown_ms = 2_000.0;
    watchdog_ms = None;
    watchdog_grace = Stdx.Watchdog.default_grace;
    recycle_after = 32;
  }

(* --------------------------------------------------------------- *)
(* The surface front-end, shared with the CLI *)

(** Elaborate an annotated surface program from source text. Front-end
    errors come back rendered with their span and caret snippet — the
    same text the CLI prints. *)
let elaborate_source ~file source :
    (V.program * Diag.srcmap, string) result =
  let render what m span =
    Error
      (Fmt.str "%s at %a: %s@.%a" what Stdx.Loc.pp span m Stdx.Loc.pp_snippet
         (source, span))
  in
  match Verifier.Elab.program_of_string ~file source with
  | prog, srcmap -> Ok (prog, srcmap)
  | exception Heaplang.Parser.Parse_error (m, sp) -> render "parse error" m sp
  | exception Heaplang.Lexer.Lex_error (m, sp) -> render "lex error" m sp
  | exception Baselogic.Elab.Elab_error (m, sp) ->
      render "elaboration error" m sp

type resolved = {
  r_name : string;
  r_prog : V.program;
  r_srcmaps : (string * Diag.srcmap) list;
  r_expect_fail : bool;
  r_source : string option;  (** for caret snippets in lint output *)
}

let find_entry n =
  List.find_opt (fun (e : Pr.entry) -> String.equal e.name n) Pr.all

let resolve (t : Protocol.target) : (resolved, string) result =
  match t with
  | Protocol.Entry n -> (
      match find_entry n with
      | Some e ->
          Ok
            {
              r_name = e.name;
              r_prog = e.prog;
              r_srcmaps = [];
              r_expect_fail = e.expect_fail;
              r_source = None;
            }
      | None -> Error ("unknown entry " ^ n))
  | Protocol.Source { file; source } ->
      Result.map
        (fun (prog, srcmap) ->
          {
            r_name = file;
            r_prog = prog;
            r_srcmaps = [ (file, srcmap) ];
            r_expect_fail = false;
            r_source = Some source;
          })
        (elaborate_source ~file source)

(* --------------------------------------------------------------- *)
(* Connections *)

(** A request line longer than this (no newline seen) is an attack or
    a bug, not a workload: the connection is answered and dropped
    rather than buffered without bound. *)
let line_cap = 16 * 1024 * 1024

(** Unflushed responses to a peer that stopped reading park in
    [wbuf] up to this bound; past it the peer is declared a dead
    consumer and dropped. *)
let wbuf_cap = 64 * 1024 * 1024

type conn = {
  cid : int;
  fd : Unix.file_descr;
  clock : Mutex.t;  (** guards writes, [wbuf], [pending], [closing], [closed] *)
  mutable rbuf : string;  (** partial request line (main loop only) *)
  mutable wbuf : string;  (** response bytes the socket hasn't taken yet *)
  mutable pending : int;  (** scheduled tasks not yet responded *)
  mutable closing : bool;  (** peer EOF seen; close once drained *)
  mutable closed : bool;
}

type t = {
  cfg : config;
  cache : E.Vc_cache.t;
  sched : Scheduler.t;
  sup : Supervisor.t;
  listen_fd : Unix.file_descr;
  conns : (Unix.file_descr, conn) Hashtbl.t;  (* main loop only *)
  mutable next_cid : int;
  started : float;
  parse_errors : int Atomic.t;
  socket_faults : int Atomic.t;
  slow_consumers : int Atomic.t;  (** connections dropped over [wbuf_cap] *)
  vlock : Mutex.t;  (** guards [vstats] *)
  mutable vstats : Verifier.Vstats.t;
      (** verifier counters summed over every cold verify run this
          daemon served *)
}

(* [c.clock] held. Push as much of [wbuf] as the (non-blocking) socket
   accepts; the rest waits for the main loop's writability pass. A
   write error marks the connection dead — its verdicts are already
   safe in the cache for whoever asks next. *)
let rec try_flush_locked (c : conn) =
  let len = String.length c.wbuf in
  if (not c.closed) && len > 0 then
    match Unix.write_substring c.fd c.wbuf 0 len with
    | 0 -> ()
    | n ->
        c.wbuf <- String.sub c.wbuf n (len - n);
        try_flush_locked c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> try_flush_locked c
    | exception _ ->
        c.closed <- true;
        (try Unix.close c.fd with _ -> ())

(** Queue one response line and flush opportunistically. Any domain
    may call this (workers, the watchdog, the main loop); writes never
    block — a stalled reader costs buffer space, not a worker. *)
let respond (c : conn) json =
  let line = Protocol.line json in
  Mutex.protect c.clock (fun () ->
      if not c.closed then begin
        c.wbuf <- c.wbuf ^ line;
        try_flush_locked c
      end)

(** Does [c] have unflushed response bytes? (Main loop: include it in
    the select write set.) *)
let wants_write (c : conn) =
  Mutex.protect c.clock (fun () -> (not c.closed) && String.length c.wbuf > 0)

(** One scheduled task finished (its response is written): drop the
    pending count and close the descriptor if the peer already left. *)
let task_done (c : conn) =
  Mutex.protect c.clock (fun () ->
      c.pending <- c.pending - 1;
      if c.closing && c.pending = 0 && not c.closed then begin
        c.closed <- true;
        try Unix.close c.fd with _ -> ()
      end)

let close_conn (c : conn) =
  Mutex.protect c.clock (fun () ->
      c.closing <- true;
      if c.pending = 0 && not c.closed then begin
        c.closed <- true;
        try Unix.close c.fd with _ -> ()
      end)

(* --------------------------------------------------------------- *)
(* Request handlers (run on scheduler workers; return the response) *)

let lint_findings_text ?source results =
  let b = Buffer.create 256 in
  List.iter
    (fun (_, ds) ->
      List.iter
        (fun d ->
          Buffer.add_string b (Fmt.str "%a@." Diag.pp d);
          match (d.Diag.loc.Diag.span, source) with
          | Some s, Some src when s.Stdx.Loc.file <> "" ->
              Buffer.add_string b
                (Fmt.str "%a@." Stdx.Loc.pp_snippet (src, s))
          | _ -> ())
        ds)
    results;
  Buffer.contents b

(** The verdict-cache key is the {e request content}: the request's
    {!Engine.Options} (every field, via [Options.key]) followed by the
    target. A suite entry is keyed by name (its program is a static
    constant of this build — the build fingerprint on the disk tier
    keeps entries from outliving the code that produced them), a
    surface program by its file name and full source text (so an
    edited file misses). The file name is part of the key because it
    is part of the reply: lint findings and located [Failed] messages
    name it, and a hit must replay a cold reply exactly. Every option
    participates: [lint] because gating changes outcomes, [absint]
    because lint findings differ (keying on it keeps the cached
    response an exact replay of a cold run), [seed] so a changed seed
    is re-verified and schedule independence stays continuously
    checked instead of assumed. Deadline/retry knobs deliberately do
    not: only decided verdicts are stored, and those are
    budget-independent. *)
let verdict_key (options : E.Options.t) (target : Protocol.target) =
  E.Options.key options
  ^
  match target with
  | Protocol.Entry n -> "entry\x00" ^ n
  | Protocol.Source { file; source } ->
      (* Length-prefixed, so no (file, source) split is ambiguous. *)
      String.concat "\x00"
        [ "source"; string_of_int (String.length file); file ^ source ]

(** The engine configuration a verify request runs under: its options,
    and its deadline/retry overrides resolved against the daemon's
    defaults — the one place that fallback is written. *)
let engine_config (d : t) (v : Protocol.verify) : E.config =
  {
    E.domains = 1;
    options = v.options;
    timeout_ms =
      (match v.timeout_ms with Some _ as t -> t | None -> d.cfg.timeout_ms);
    retries = Option.value ~default:d.cfg.retries v.retries;
  }

(** A verify reply, cold or replayed: the same rendering either way,
    so a hit's [output] and [report.entries] are a cold reply's. *)
let verify_response ~id ~cached ~name ~expect_fail ~findings
    (report : E.report) =
  let g = List.hd report.E.groups in
  let status = Render.entry_status ~expect_fail g in
  let output = findings ^ Render.group_text ~name ~expect_fail status g in
  Protocol.response ~id
    [
      ("ok", Json.Bool true);
      ("exit", Json.Num (float_of_int (Render.exit_of_status status)));
      ("status", Json.Str (Render.status_string status));
      ("cached", Json.Bool cached);
      ( "report",
        Json.Raw (Render.json_of_report report [ (name, expect_fail, status) ])
      );
      ("output", Json.Str output);
    ]

(** Answer [v] from the verdict cache alone, or [None] on a miss: one
    probe, then the entry's outcomes and findings text are the whole
    reply — no parse, elaboration, lint or absint, no solver work. The
    name and expectation come from the target itself. *)
let replay (d : t) (v : Protocol.verify) : Json.t option =
  let label =
    match v.target with
    | Protocol.Source { file; _ } -> Some (file, false)
    | Protocol.Entry n ->
        Option.map
          (fun (e : Pr.entry) -> (e.name, e.expect_fail))
          (find_entry n)
  in
  Option.bind label (fun (name, expect_fail) ->
      let t0 = Unix.gettimeofday () in
      Option.map
        (fun ((hit : E.Vc_cache.verdicts), tier) ->
          let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
          verify_response ~id:v.id ~cached:true ~name ~expect_fail
            ~findings:hit.findings
            (E.cached_report ~group:name ~outcomes:hit.outcomes ~tier ~wall_ms))
        (E.Vc_cache.lookup_verdicts d.cache (verdict_key v.options v.target)))

let handle_verify (d : t) (config : E.config) (v : Protocol.verify) : Json.t =
  match replay d v with
  | Some resp -> resp
  | None -> (
      (* A miss: resolve, verify, store (decided groups only). *)
      match resolve v.target with
      | Error m -> Protocol.error_response ~id:v.id m
      | Ok r ->
          let report =
            E.verify_programs ~config ~srcmaps:r.r_srcmaps
              [ (r.r_name, r.r_prog) ]
          in
          let g = List.hd report.E.groups in
          let findings =
            if config.E.options.lint then
              lint_findings_text ?source:r.r_source report.E.lint
            else ""
          in
          E.Vc_cache.store_verdicts d.cache
            (verdict_key v.options v.target)
            { outcomes = g.E.outcomes; findings };
          (* Daemon-lifetime gauges for the [stats] op: how much work
             the abstract pre-discharge saved across cold runs. *)
          let vs = report.E.stats.E.vstats in
          Mutex.protect d.vlock (fun () ->
              d.vstats <- Verifier.Vstats.sum d.vstats vs);
          verify_response ~id:v.id ~cached:false ~name:r.r_name
            ~expect_fail:r.r_expect_fail ~findings report)

let handle_lint (l : Protocol.lint) : Json.t =
  let id = l.id in
  match resolve l.target with
  | Error m -> Protocol.error_response ~id m
  | Ok r ->
      let results, a =
        E.run_analysis ~srcmaps:r.r_srcmaps ~absint:l.options.absint
          ~domains:1
          [ (r.r_name, r.r_prog) ]
      in
      let ds = List.concat_map snd results in
      let errors = Diag.has_errors ds in
      Protocol.response ~id
        [
          ("ok", Json.Bool true);
          ("exit", Json.Num (if errors then 1.0 else 0.0));
          ("diags", Json.Raw (Render.json_of_diags (Diag.sort ds)));
          ("findings", Json.Num (float_of_int a.E.a_diags));
          ("errors", Json.Num (float_of_int a.E.a_errors));
          ( "output",
            Json.Str (lint_findings_text ?source:r.r_source results) );
        ]

(* --------------------------------------------------------------- *)
(* Stats *)

let num i = Json.Num (float_of_int i)
let nums = List.map (fun (k, i) -> (k, num i))

let stats_json (d : t) =
  let s = Scheduler.stats d.sched in
  let cache = d.cache in
  let vs = Mutex.protect d.vlock (fun () -> d.vstats) in
  Json.Obj
    ([
      ( "uptime_ms",
        Json.Num ((Unix.gettimeofday () -. d.started) *. 1000.0) );
      ("workers", num s.Scheduler.workers);
      ("pending", num s.Scheduler.pending);
      ("clients", num s.Scheduler.clients);
      ("submitted", num s.Scheduler.submitted);
      ("rejected", num s.Scheduler.rejected);
      ("completed", num s.Scheduler.completed);
      ("task_failures", num s.Scheduler.task_failures);
      ("parse_errors", num (Atomic.get d.parse_errors));
      ("socket_faults", num (Atomic.get d.socket_faults));
      ("slow_consumers", num (Atomic.get d.slow_consumers));
    ]
    @ List.map
        (fun (k, v) -> (k, Json.Raw (Stdx.Counters.value_to_string v)))
        (Stdx.Counters.to_list Verifier.Vstats.fields vs)
    @ [
      ( "supervisor",
        (* The PR 10 supervision counters the chaos gates watch: every
           repair mechanism leaves an audit trail here. *)
        Json.Obj
          ([
             ("worker_crashes", num s.Scheduler.worker_crashes);
             ( "worker_crash_counts",
               Json.List (List.map num (Scheduler.crash_counts d.sched)) );
             ("respawns", num s.Scheduler.respawns);
             ("abandoned", num s.Scheduler.abandoned);
           ]
          @ nums (Supervisor.counters d.sup)
          @ [
              ( "watchdog",
                Json.Obj
                  (nums (Stdx.Watchdog.counters d.sup.Supervisor.watchdog)) );
            ]) );
      ( "solver",
        (* Process-global gauges from the hash-consed term pool; the
           solver counters live in the per-report engine stats. *)
        let ps = Smt.Term.pool_stats () in
        let lookups = ps.Smt.Term.pool_hits + ps.Smt.Term.pool_misses in
        Json.Obj
          [
            ("term_pool_size", num ps.Smt.Term.pool_size);
            ("term_pool_hits", num ps.Smt.Term.pool_hits);
            ("term_pool_misses", num ps.Smt.Term.pool_misses);
            ( "term_pool_hit_rate",
              Json.Num
                (if lookups = 0 then 0.0
                 else float_of_int ps.Smt.Term.pool_hits /. float_of_int lookups)
            );
          ] );
      ( "cache",
        Json.Obj
          ([
             ("mem_hits", num (E.Vc_cache.hits cache));
             ("disk_hits", num (E.Vc_cache.disk_hits cache));
             ("misses", num (E.Vc_cache.misses cache));
             ("corrupt", num (E.Vc_cache.corrupt cache));
             ("mem_entries", num (E.Vc_cache.size cache));
             ("disk_entries", num (E.Vc_cache.disk_entries cache));
             ("disk_bytes", num (E.Vc_cache.disk_bytes cache));
             (* Crash-recovery results from this daemon's startup scan. *)
             ("recovered_tmp", num (E.Vc_cache.recovered_tmp cache));
             ("recovered_torn", num (E.Vc_cache.recovered_torn cache));
             ("journal_replayed", num (E.Vc_cache.journal_replayed cache));
           ]
          @
          match E.Vc_cache.fingerprint cache with
          | Some f -> [ ("fingerprint", Json.Str f) ]
          | None -> []) );
    ])

(* --------------------------------------------------------------- *)
(* The main loop *)

exception Shutdown_requested of conn * Json.t  (* conn, request id *)
exception Signal_drain  (* SIGTERM/SIGINT: graceful drain, no ack conn *)

(** The request's total cooperative budget: its deadline times every
    escalated retry it is entitled to. The watchdog only calls a
    worker stuck once this whole envelope (times the grace factor) is
    exhausted — legitimate slow requests retire on their own. *)
let request_budget_ms (config : E.config) =
  Option.map
    (fun ms ->
      let rec total acc ms i =
        if i > config.E.retries then acc
        else total (acc +. ms) (ms *. E.Job.escalation) (i + 1)
      in
      total 0.0 ms 0)
    config.E.timeout_ms

(** The circuit breaker's identity for a request: everything that
    determines what work it triggers. Two requests with the same
    digest crash workers the same way. *)
let request_digest (req : Protocol.request) =
  let digest op options target =
    Digest.to_hex (Digest.string (op ^ "\x00" ^ verdict_key options target))
  in
  match req with
  | Protocol.Verify { options; target; _ } -> digest "verify" options target
  | Protocol.Lint { options; target; _ } -> digest "lintop" options target
  | Protocol.Stats _ | Protocol.Shutdown _ -> ""

(** Run an admitted request's [handle] on a scheduler worker under
    the supervisor's guard, with a once-only reply: exactly one of the
    handler's response, a structured crash response, or the watchdog's
    preemption response reaches the client — whichever settles
    first. *)
let submit_guarded (d : t) (c : conn) ~id ~digest ~budget_ms handle =
  let settled = Atomic.make false in
  let reply json =
    if not (Atomic.exchange settled true) then begin
      respond c json;
      task_done c
    end
  in
  let task () =
    match
      Supervisor.guard d.sup ~sched:d.sched ~digest ~budget_ms
        ~on_preempt:(fun () ->
          reply
            (Protocol.error_response ~id ~retryable:true
               "preempted: worker exceeded its budget and stopped \
                responding; the watchdog replaced it"))
        (fun () -> reply (handle ()))
    with
    | Supervisor.Done | Supervisor.Preempted -> ()
    | Supervisor.Crashed msg ->
        reply
          (Protocol.error_response ~id ~retryable:true
             ("worker crashed: " ^ msg))
  in
  Mutex.protect c.clock (fun () -> c.pending <- c.pending + 1);
  match Scheduler.submit d.sched ~cid:c.cid task with
  | `Accepted -> ()
  | `Busy ->
      Mutex.protect c.clock (fun () -> c.pending <- c.pending - 1);
      respond c
        (Protocol.error_response ~id ~busy:true ~retry_after_ms:100.0
           "queue full — daemon is busy, retry later")
  | `Stopping ->
      Mutex.protect c.clock (fun () -> c.pending <- c.pending - 1);
      respond c (Protocol.error_response ~id "daemon is shutting down")

(** Admission control for a verify/lint request. [inline] answers it
    without the solver when it can — lint, a verdict-cache hit — and
    is tried only when solve capacity is saturated (degraded mode), so
    the service stays reachable under overload. *)
let admit (d : t) (c : conn) req ~budget_ms ~inline handle =
  let id = Protocol.request_id req in
  let digest = request_digest req in
  let pending = (Scheduler.stats d.sched).Scheduler.pending in
  match Supervisor.admit d.sup ~pending ~digest with
  | Supervisor.Quarantined { retry_after_ms; crashes } ->
      respond c
        (Protocol.error_response ~id ~retryable:true ~retry_after_ms
           (Printf.sprintf
              "quarantined: this request crashed %d consecutive workers; \
               circuit open, retry after cooldown"
              crashes))
  | Supervisor.Shed { retry_after_ms } -> (
      match inline () with
      | Some resp ->
          Supervisor.note_degraded d.sup;
          respond c resp
      | None ->
          respond c
            (Protocol.error_response ~id ~busy:true ~retry_after_ms
               "overloaded — global in-flight budget exhausted, retry later"))
  | Supervisor.Admit -> submit_guarded d c ~id ~digest ~budget_ms handle

(** Dispatch one request line from [c]. Cheap requests (stats, errors,
    backpressure rejections) answer inline from the main loop;
    verify/lint go through admission control and then the scheduler,
    which preserves per-client FIFO order for them. *)
let dispatch (d : t) (c : conn) line =
  (* Chaos-testing hook: an injected socket fault garbles this request
     — the daemon answers with an error instead of dispatching, the
     degradation the soundness property allows (the client can retry;
     no verdict is ever fabricated). *)
  if Stdx.Fault.fires Stdx.Fault.Socket then begin
    Atomic.incr d.socket_faults;
    respond c
      (Protocol.error_response ~id:Json.Null ~retryable:true
         "injected fault: socket")
  end
  else
    match Protocol.request_of_line line with
    | Error m ->
        Atomic.incr d.parse_errors;
        respond c (Protocol.error_response ~id:Json.Null m)
    | Ok (Protocol.Stats { id }) ->
        respond c
          (Protocol.response ~id
             [ ("ok", Json.Bool true); ("stats", stats_json d) ])
    | Ok (Protocol.Shutdown { id }) -> raise (Shutdown_requested (c, id))
    | Ok (Protocol.Lint l as req) ->
        admit d c req ~budget_ms:None
          ~inline:(fun () -> Some (handle_lint l))
          (fun () -> handle_lint l)
    | Ok (Protocol.Verify v as req) ->
        let config = engine_config d v in
        admit d c req ~budget_ms:(request_budget_ms config)
          ~inline:(fun () -> replay d v)
          (fun () -> handle_verify d config v)

(** Consume complete lines from [c]'s read buffer. *)
let drain_lines (d : t) (c : conn) =
  let rec go () =
    match String.index_opt c.rbuf '\n' with
    | None -> ()
    | Some i ->
        let line = String.sub c.rbuf 0 i in
        c.rbuf <- String.sub c.rbuf (i + 1) (String.length c.rbuf - i - 1);
        if String.trim line <> "" then dispatch d c line;
        go ()
  in
  go ()

let handle_readable (d : t) (c : conn) =
  let buf = Bytes.create 65536 in
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 ->
      Hashtbl.remove d.conns c.fd;
      close_conn c
  | n ->
      c.rbuf <- c.rbuf ^ Bytes.sub_string buf 0 n;
      drain_lines d c;
      if String.length c.rbuf > line_cap then begin
        (* A "line" this long is not a request; stop buffering it. *)
        Atomic.incr d.parse_errors;
        respond c
          (Protocol.error_response ~id:Json.Null "request line too long");
        Hashtbl.remove d.conns c.fd;
        close_conn c
      end
  | exception
      Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      ()
  | exception Unix.Unix_error _ ->
      Hashtbl.remove d.conns c.fd;
      close_conn c

(** Flush [c]'s write buffer on main-loop writability; drop dead
    consumers whose buffer outgrew the cap. *)
let handle_writable (d : t) (c : conn) =
  Mutex.protect c.clock (fun () ->
      try_flush_locked c;
      if String.length c.wbuf > wbuf_cap then begin
        Atomic.incr d.slow_consumers;
        c.closed <- true;
        try Unix.close c.fd with _ -> ()
      end);
  if
    Mutex.protect c.clock (fun () -> c.closed)
  then Hashtbl.remove d.conns c.fd

let accept_conn (d : t) =
  match Unix.accept d.listen_fd with
  | fd, _ ->
      (* Non-blocking on both sides: reads can't stall the loop past
         select's word, and writes park in [wbuf] instead of blocking
         a worker on a slow reader. *)
      (try Unix.set_nonblock fd with _ -> ());
      d.next_cid <- d.next_cid + 1;
      Hashtbl.replace d.conns fd
        {
          cid = d.next_cid;
          fd;
          clock = Mutex.create ();
          rbuf = "";
          wbuf = "";
          pending = 0;
          closing = false;
          closed = false;
        }
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()

(** Bind the listening socket, replacing a stale socket file (one
    whose daemon is gone); refuse to displace a live daemon. *)
let bind_socket path : (Unix.file_descr, string) result =
  let addr = Unix.ADDR_UNIX path in
  let stale_check =
    if not (Sys.file_exists path) then Ok ()
    else begin
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect probe addr with
      | () ->
          Unix.close probe;
          Error (Printf.sprintf "%s: a daemon is already listening" path)
      | exception Unix.Unix_error (_, _, _) ->
          Unix.close probe;
          (try Sys.remove path with _ -> ());
          Ok ()
    end
  in
  match stale_check with
  | Error _ as e -> e
  | Ok () -> (
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match
        Unix.bind fd addr;
        Unix.listen fd 64
      with
      | () -> Ok fd
      | exception Unix.Unix_error (e, _, _) ->
          Unix.close fd;
          Error (Printf.sprintf "%s: %s" path (Unix.error_message e)))

(** Push every connection's unflushed responses out, bounded by
    [seconds] — the final write pass of a drain, after the workers
    have finished. Peers that never read again are abandoned at the
    deadline. *)
let drain_flush (d : t) ~seconds =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () =
    let wfds =
      Hashtbl.fold
        (fun fd c acc -> if wants_write c then fd :: acc else acc)
        d.conns []
    in
    if wfds <> [] && Unix.gettimeofday () < deadline then begin
      (match Unix.select [] wfds [] 0.2 with
      | _, ws, _ ->
          List.iter
            (fun fd ->
              match Hashtbl.find_opt d.conns fd with
              | Some c -> handle_writable d c
              | None -> ())
            ws
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ()
    end
  in
  go ()

(** Run the daemon. Blocks until a [shutdown] request or a
    SIGTERM/SIGINT arrives; returns [Ok ()] after draining — workers
    finish everything accepted, responses are flushed, the socket file
    is removed. SIGHUP logs a stats snapshot to stderr without
    interrupting service. *)
let run (cfg : config) : (unit, string) result =
  (match Sys.os_type with
  | "Unix" -> (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ())
  | _ -> ());
  match bind_socket cfg.socket_path with
  | Error _ as e -> e
  | Ok listen_fd ->
      let cache =
        E.Vc_cache.create ?disk_dir:cfg.cache_dir
          ~max_bytes:cfg.cache_max_bytes ?fingerprint:cfg.cache_fingerprint ()
      in
      let d =
        {
          cfg;
          cache;
          sched =
            Scheduler.create ~bound:cfg.queue_bound
              ~recycle_after:cfg.recycle_after ~workers:cfg.workers ();
          sup =
            Supervisor.create
              {
                Supervisor.breaker_threshold = cfg.breaker_threshold;
                breaker_cooldown_ms = cfg.breaker_cooldown_ms;
                max_inflight = cfg.max_inflight;
                watchdog_grace = cfg.watchdog_grace;
                watchdog_ms = cfg.watchdog_ms;
              };
          listen_fd;
          conns = Hashtbl.create 16;
          next_cid = 0;
          started = Unix.gettimeofday ();
          parse_errors = Atomic.make 0;
          socket_faults = Atomic.make 0;
          slow_consumers = Atomic.make 0;
          vlock = Mutex.create ();
          vstats = Verifier.Vstats.create ();
        }
      in
      (* Signal-driven lifecycle: TERM/INT request a graceful drain,
         HUP a stats snapshot. Handlers only flip atomics — the select
         loop (woken by EINTR or its own timeout) does the work. *)
      let sig_term = Atomic.make false and sig_hup = Atomic.make false in
      let saved_signals =
        List.filter_map
          (fun (signo, beh) ->
            try Some (signo, Sys.signal signo beh) with _ -> None)
          [
            (Sys.sigterm, Sys.Signal_handle (fun _ -> Atomic.set sig_term true));
            (Sys.sigint, Sys.Signal_handle (fun _ -> Atomic.set sig_term true));
            (Sys.sighup, Sys.Signal_handle (fun _ -> Atomic.set sig_hup true));
          ]
      in
      let cleanup () =
        drain_flush d ~seconds:5.0;
        Supervisor.stop d.sup;
        Hashtbl.iter (fun _ c -> close_conn c) d.conns;
        (try Unix.close listen_fd with _ -> ());
        (try Sys.remove cfg.socket_path with _ -> ());
        List.iter
          (fun (signo, beh) -> try Sys.set_signal signo beh with _ -> ())
          saved_signals
      in
      let rec loop () =
        if Atomic.get sig_hup then begin
          Atomic.set sig_hup false;
          Fmt.epr "daenerys-serve stats: %s@." (Json.to_string (stats_json d))
        end;
        if Atomic.get sig_term then raise Signal_drain;
        let rfds =
          listen_fd
          :: Hashtbl.fold
               (fun fd c acc -> if c.closed then acc else fd :: acc)
               d.conns []
        in
        let wfds =
          Hashtbl.fold
            (fun fd c acc -> if wants_write c then fd :: acc else acc)
            d.conns []
        in
        let readable, writable =
          match Unix.select rfds wfds [] 0.5 with
          | r, w, _ -> (r, w)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
        in
        List.iter
          (fun fd ->
            match Hashtbl.find_opt d.conns fd with
            | Some c -> handle_writable d c
            | None -> ())
          writable;
        List.iter
          (fun fd ->
            if fd = listen_fd then accept_conn d
            else
              match Hashtbl.find_opt d.conns fd with
              | Some c -> handle_readable d c
              | None -> ())
          readable;
        loop ()
      in
      (match loop () with
      | () -> ()
      | exception Shutdown_requested (c, id) ->
          (* Stop admissions, drain everything accepted (their
             responses are written by the workers), then ack. *)
          Scheduler.shutdown d.sched;
          Scheduler.wait d.sched;
          respond c
            (Protocol.response ~id
               [ ("ok", Json.Bool true); ("shutdown", Json.Bool true) ])
      | exception Signal_drain ->
          (* SIGTERM/SIGINT: same drain, no ack connection. The cache's
             disk tier is already durable (every store published
             atomically at store time), so draining the workers is the
             whole flush. *)
          Scheduler.shutdown d.sched;
          Scheduler.wait d.sched);
      cleanup ();
      Ok ()
