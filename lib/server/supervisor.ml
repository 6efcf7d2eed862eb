(** The daemon's supervision layer: worker isolation, circuit
    breaking, watchdog preemption, and admission control.

    The daemon of PR 6 already turns {e request}-level failures into
    error responses, and PR 5's budgets stop cooperative loops. What
    neither layer covers is the worker itself misbehaving: an
    exception (or [Out_of_memory], [Stack_overflow]) escaping the
    engine, a loop that stops polling its budget, or a single
    pathological request resubmitted forever. This module sits between
    the daemon's dispatch and the {!Scheduler}, and closes those
    gaps:

    - {b Isolation} ({!guard}): every request body runs under a
      catch-all on its worker; an escaping exception becomes a
      structured crash result for {e that request}, is counted against
      the worker's slot (the scheduler recycles a domain whose crash
      count says its domain-local state is suspect), and never
      propagates.
    - {b Circuit breaking}: crashes are also counted per {e request
      digest}; after [breaker_threshold] consecutive crashes the
      digest is quarantined — subsequent submissions are rejected
      immediately with a retry-after hint instead of being fed to
      another worker. After [breaker_cooldown_ms] a single probe is
      let through (half-open): success closes the circuit, another
      crash re-opens it.
    - {b Watchdog preemption} (with {!Stdx.Watchdog}): each guarded
      request with a known budget is watched from outside. At
      [budget × grace] the ambient budget is cancelled — a loop that
      still polls dies at its next poll point. At twice that the
      worker is declared lost: the watchdog answers the request on its
      behalf (through the daemon's once-only reply), tells the
      scheduler to {!Scheduler.abandon} the incarnation, and a fresh
      worker takes the slot. A non-polling loop costs one domain, not
      the daemon.
    - {b Admission control} ({!admit}): a global in-flight/queued
      budget above the scheduler's per-client bound. Above
      [max_inflight] pending requests, new solve work is shed with a
      [busy] + retry-after response; the daemon keeps serving lint and
      verdict-cache hits inline (degraded mode), so saturated solve
      capacity never makes the service unreachable.

    Chaos hooks: the [worker] fault site injects a crash into the
    guarded body, and the [stall] site wedges the worker in a
    deliberately non-polling spin until the watchdog writes it off —
    both are exercised by the seeded chaos gates, which require that
    neither ever flips a verdict or kills the process. *)

type config = {
  breaker_threshold : int;
      (** consecutive crashes of one digest before quarantine; 0 = off *)
  breaker_cooldown_ms : float;  (** quarantine duration before a probe *)
  max_inflight : int;  (** global pending-request budget; 0 = unbounded *)
  watchdog_grace : float;  (** budget multiplier before soft preemption *)
  watchdog_ms : float option;
      (** fixed watchdog budget override; [None] derives it from each
          request's own deadline/retry envelope *)
}

let default_config =
  {
    breaker_threshold = 3;
    breaker_cooldown_ms = 2_000.0;
    max_inflight = 256;
    watchdog_grace = Stdx.Watchdog.default_grace;
    watchdog_ms = None;
  }

type breaker_entry = {
  mutable consec : int;  (** consecutive crashes; success resets *)
  mutable opened_at : float;  (** when the circuit opened (consec hit N) *)
}

type t = {
  cfg : config;
  watchdog : Stdx.Watchdog.t;
  block : Mutex.t;  (** guards [breaker] *)
  breaker : (string, breaker_entry) Hashtbl.t;
  crashes : int Atomic.t;  (** guarded bodies that raised *)
  preempted : int Atomic.t;  (** requests answered by the watchdog *)
  stalls : int Atomic.t;  (** injected non-polling stalls *)
  breaker_trips : int Atomic.t;  (** circuits opened *)
  breaker_rejects : int Atomic.t;  (** requests rejected while open *)
  shed : int Atomic.t;  (** requests shed by admission control *)
  degraded : int Atomic.t;  (** requests served inline while saturated *)
}

let create ?(watchdog_interval_s = 0.05) (cfg : config) =
  {
    cfg;
    watchdog = Stdx.Watchdog.create ~interval_s:watchdog_interval_s ();
    block = Mutex.create ();
    breaker = Hashtbl.create 64;
    crashes = Atomic.make 0;
    preempted = Atomic.make 0;
    stalls = Atomic.make 0;
    breaker_trips = Atomic.make 0;
    breaker_rejects = Atomic.make 0;
    shed = Atomic.make 0;
    degraded = Atomic.make 0;
  }

let stop t = Stdx.Watchdog.stop t.watchdog

(* --------------------------------------------------------------- *)
(* Circuit breaker *)

(* The table is bounded defensively: a daemon fed millions of distinct
   digests must not grow it without limit, and entries below the
   threshold carry no decision. *)
let breaker_cap = 4096

let record_crash t digest =
  if t.cfg.breaker_threshold > 0 then
    Mutex.protect t.block (fun () ->
        if Hashtbl.length t.breaker > breaker_cap then begin
          let keep =
            Hashtbl.fold
              (fun k e acc ->
                if e.consec >= t.cfg.breaker_threshold then (k, e) :: acc
                else acc)
              t.breaker []
          in
          Hashtbl.reset t.breaker;
          List.iter (fun (k, e) -> Hashtbl.replace t.breaker k e) keep
        end;
        let e =
          match Hashtbl.find_opt t.breaker digest with
          | Some e -> e
          | None ->
              let e = { consec = 0; opened_at = 0.0 } in
              Hashtbl.replace t.breaker digest e;
              e
        in
        e.consec <- e.consec + 1;
        if e.consec >= t.cfg.breaker_threshold then begin
          (* Newly tripped, or a half-open probe that crashed: (re)open
             the circuit from now. *)
          if e.consec = t.cfg.breaker_threshold then
            Atomic.incr t.breaker_trips;
          e.opened_at <- Unix.gettimeofday ()
        end)

let record_success t digest =
  if t.cfg.breaker_threshold > 0 then
    Mutex.protect t.block (fun () -> Hashtbl.remove t.breaker digest)

(** Digests currently quarantined (gauge, for the [stats] op). *)
let breaker_open t =
  Mutex.protect t.block (fun () ->
      Hashtbl.fold
        (fun _ e acc ->
          if e.consec >= t.cfg.breaker_threshold then acc + 1 else acc)
        t.breaker 0)

(* --------------------------------------------------------------- *)
(* Admission *)

type admission =
  | Admit
  | Shed of { retry_after_ms : float }
      (** over the global budget; the daemon may still serve it inline
          in degraded mode (lint, verdict-cache hit) *)
  | Quarantined of { retry_after_ms : float; crashes : int }

(** Admission decision for a request with content digest [digest],
    given the scheduler's current pending (queued + in-flight) count.
    Pure bookkeeping — no IO; called from the daemon's main loop. *)
let admit t ~pending ~digest =
  let quarantined =
    if t.cfg.breaker_threshold <= 0 then None
    else
      Mutex.protect t.block (fun () ->
          match Hashtbl.find_opt t.breaker digest with
          | Some e when e.consec >= t.cfg.breaker_threshold ->
              let elapsed_ms =
                (Unix.gettimeofday () -. e.opened_at) *. 1000.0
              in
              if elapsed_ms < t.cfg.breaker_cooldown_ms then
                Some
                  (Quarantined
                     {
                       retry_after_ms = t.cfg.breaker_cooldown_ms -. elapsed_ms;
                       crashes = e.consec;
                     })
              else None (* half-open: let one probe through *)
          | _ -> None)
  in
  match quarantined with
  | Some q ->
      Atomic.incr t.breaker_rejects;
      q
  | None ->
      if t.cfg.max_inflight > 0 && pending >= t.cfg.max_inflight then begin
        Atomic.incr t.shed;
        let overload = pending - t.cfg.max_inflight + 1 in
        Shed
          { retry_after_ms = Float.min 1_000.0 (25.0 *. float_of_int overload) }
      end
      else Admit

let note_degraded t = Atomic.incr t.degraded

(* --------------------------------------------------------------- *)
(* The guard: isolation + watchdog, on the worker *)

type outcome =
  | Done  (** body ran to completion and replied *)
  | Crashed of string  (** body raised; caller must reply *)
  | Preempted  (** watchdog already replied and replaced the worker *)

(** Run [body] (a request handler) isolated on the calling scheduler
    worker. [budget_ms] is the request's total cooperative budget
    (deadline × escalated retries); when known, the watchdog watches
    the request from outside, first cancelling the ambient budget
    installed here (soft), then — [on_preempt] — answering the request
    and abandoning the worker (hard). [on_preempt] runs on the
    watchdog domain and must not raise.

    Never raises. The caller translates {!Crashed} into a structured
    error response and {!Preempted} into silence (the watchdog already
    answered). *)
let guard t ~sched ~digest ~budget_ms ~on_preempt body =
  let slot = Scheduler.current_slot () in
  let gb = Stdx.Budget.create () in
  let aborted = Atomic.make false in
  let preempted = Atomic.make false in
  let budget_ms =
    match t.cfg.watchdog_ms with Some _ as w -> w | None -> budget_ms
  in
  let watch =
    match (budget_ms, slot) with
    | Some ms, Some (wid, seq) ->
        Some
          (Stdx.Watchdog.watch t.watchdog ~grace:t.cfg.watchdog_grace
             ~deadline_ms:ms
             ~cancel:(fun () -> Stdx.Budget.cancel gb)
             ~abandon:(fun () ->
               Atomic.set preempted true;
               Atomic.incr t.preempted;
               record_crash t digest;
               on_preempt ();
               (* Close the books and spawn the replacement before
                  releasing an injected stall: the stale incarnation
                  then always finds itself already written off and
                  exits without touching the accounting. *)
               ignore (Scheduler.abandon sched ~wid ~seq);
               Atomic.set aborted true)
             ())
    | _ -> None
  in
  let finish outcome =
    Option.iter (fun w -> ignore (Stdx.Watchdog.unwatch t.watchdog w)) watch;
    outcome
  in
  match
    Stdx.Budget.with_budget gb (fun () ->
        if watch <> None && Stdx.Fault.fires Stdx.Fault.Stall then begin
          (* Chaos hook: defeat the cooperative contract outright — a
             busy spin that never polls its budget. Only the watchdog's
             hard stage (which sets [aborted]) gets the domain back. *)
          Atomic.incr t.stalls;
          while not (Atomic.get aborted) do
            ignore (Sys.opaque_identity aborted)
          done
        end
        else begin
          (* Chaos hook: a crash escaping the whole request handler —
             past the engine's per-job catch-all. *)
          Stdx.Fault.inject Stdx.Fault.Worker;
          body ()
        end)
  with
  | () ->
      if Atomic.get preempted then finish Preempted
      else begin
        record_success t digest;
        finish Done
      end
  | exception e ->
      if Atomic.get preempted then finish Preempted
      else begin
        Atomic.incr t.crashes;
        record_crash t digest;
        (match slot with
        | Some (wid, _) -> ignore (Scheduler.note_crash sched ~wid)
        | None -> ());
        finish (Crashed (Printexc.to_string e))
      end

(* --------------------------------------------------------------- *)
(* Stats *)

(** The supervision counters under their [stats]-op keys. *)
let counters (t : t) =
  [
    ("crashes", Atomic.get t.crashes);
    ("preempted", Atomic.get t.preempted);
    ("stalls", Atomic.get t.stalls);
    ("breaker_trips", Atomic.get t.breaker_trips);
    ("breaker_rejects", Atomic.get t.breaker_rejects);
    ("breaker_open", breaker_open t);
    ("shed", Atomic.get t.shed);
    ("degraded_served", Atomic.get t.degraded);
  ]
