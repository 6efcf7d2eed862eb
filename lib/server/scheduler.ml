(** A fair FIFO-per-client scheduler over a warm pool of domains.

    The batch pool of PR 1 ([Engine.Pool]) drains a fixed array and
    joins its workers — right for one CLI run, wrong for a daemon. This
    scheduler keeps [workers] domains alive across requests (warm
    domains: no spawn cost, and domain-local solver state — statistics,
    budgets — stays resident) and feeds them from per-client queues:

    - {b FIFO per client}: each client's requests run in submission
      order, at most one in flight at a time — which is also what makes
      that client's responses arrive in order.
    - {b Fair across clients}: runnable clients wait in a round-robin
      ring; after each task the client re-enters at the back, so a
      client with a deep queue cannot starve the others.
    - {b Backpressure}: each client's queue is bounded; a submit
      against a full queue is {e rejected immediately} ([`Busy]) rather
      than buffered without limit — the daemon turns this into a
      [busy] response the client can react to.
    - {b Drain on shutdown}: {!shutdown} stops admissions; workers
      finish everything already accepted (in flight {e and} queued)
      before {!wait} returns, so no accepted request is ever dropped.

    Workers are {e replaceable} (the substrate of the PR 10
    supervisor): each of the [workers] capacity slots holds the current
    {e incarnation} of that worker, and

    - {!abandon} writes off an incarnation wedged in a non-cooperative
      task (the watchdog's hard preemption): the task is accounted
      completed — its owner answers the request on the worker's behalf
      — the client is re-rung, and a fresh incarnation is spawned into
      the slot. An OCaml domain cannot be killed from outside, so the
      old one is left to run; if its task ever finishes, the stale
      incarnation notices it was abandoned and exits without touching
      the books. A stuck loop costs one domain, never the pool.
    - {!recycle} retires an incarnation at its next idle point — after
      [recycle_after] raising tasks (automatic hygiene: a domain that
      keeps crashing may have poisoned domain-local state), or on
      demand from the supervisor's per-worker crash counters.

    Tasks must not raise — the daemon wraps each request handler in
    its own catch-all (a failing request becomes an error response,
    not a dead worker). A raising task is caught here anyway and
    counted, as a last line of defense. *)

type task = unit -> unit

type client_q = {
  tasks : task Queue.t;
  mutable in_flight : bool;  (** a worker is running this client's task *)
  mutable in_ring : bool;  (** queued in [ring] (at most once) *)
}

(** One spawned domain. The slot it occupies survives it; the
    incarnation record is the identity the domain checks to learn it
    was abandoned while stuck. *)
type inc = { mutable gone : bool }

type slot = {
  wid : int;  (** stable worker id (slot index) *)
  mutable inc : inc;  (** current incarnation *)
  mutable dom : unit Domain.t option;  (** joinable current domain *)
  mutable running : (int * int) option;  (** (cid, task seq) in flight *)
  mutable retire : bool;  (** recycle after the current task *)
  mutable crashes : int;  (** raising tasks, across incarnations *)
}

type t = {
  lock : Mutex.t;
  runnable : Condition.t;  (** signalled when [ring] gains a client *)
  drained : Condition.t;  (** signalled when all work has finished *)
  clients : (int, client_q) Hashtbl.t;
      (** clients with queued or in-flight work; see {!finish} *)
  ring : int Queue.t;  (** round-robin ring of runnable client ids *)
  bound : int;  (** max queued (not yet running) tasks per client *)
  recycle_after : int;  (** raising tasks before automatic recycle *)
  slots : slot array;
  mutable task_seq : int;  (** distinguishes a slot's successive tasks *)
  mutable stopping : bool;
  mutable live : int;  (** queued + in-flight tasks *)
  mutable submitted : int;
  mutable rejected : int;
  mutable completed : int;
  mutable task_failures : int;  (** tasks that raised (should be zero) *)
  mutable respawns : int;  (** incarnations spawned beyond the first *)
  mutable abandoned : int;  (** incarnations written off while stuck *)
}

(* The slot identity of the calling worker domain's current task, for
   code (the supervisor's guard) that runs inside a task and needs to
   name its own worker to {!abandon}/{!recycle}. *)
let slot_key : (int * int) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(** [(wid, task seq)] of the task the calling domain is running, if it
    is a scheduler worker inside a task. *)
let current_slot () = !(Domain.DLS.get slot_key)

let client_q t cid =
  match Hashtbl.find_opt t.clients cid with
  | Some q -> q
  | None ->
      let q = { tasks = Queue.create (); in_flight = false; in_ring = false } in
      Hashtbl.replace t.clients cid q;
      q

(** Make [cid] runnable if it has work and nothing in flight. *)
let enring t cid (q : client_q) =
  if (not q.in_ring) && (not q.in_flight) && not (Queue.is_empty q.tasks)
  then begin
    q.in_ring <- true;
    Queue.push cid t.ring;
    Condition.signal t.runnable
  end

(** [cid]'s task completed or was written off: re-ring the client if it
    has more work, otherwise drop its record. A client in the ring
    always has queued work, so a dropped record is never looked up
    again; {!client_q} recreates it on the next submit. Without this,
    every connection the daemon ever served would keep a record. *)
let finish t cid (q : client_q) =
  q.in_flight <- false;
  if Queue.is_empty q.tasks then Hashtbl.remove t.clients cid
  else enring t cid q

let rec worker t (slot : slot) (inc : inc) () =
  let cell = Domain.DLS.get slot_key in
  let rec loop () =
    Mutex.lock t.lock;
    while
      Queue.is_empty t.ring && (not (t.stopping && t.live = 0)) && not inc.gone
    do
      Condition.wait t.runnable t.lock
    done;
    if inc.gone then
      (* Abandoned while idle (cannot happen today: [abandon] targets a
         running task) or retired by a racing recycle. Just leave. *)
      Mutex.unlock t.lock
    else if Queue.is_empty t.ring then
      (* stopping && live = 0: everything accepted has been drained. *)
      Mutex.unlock t.lock
    else begin
      let cid = Queue.pop t.ring in
      let q = Hashtbl.find t.clients cid in
      q.in_ring <- false;
      q.in_flight <- true;
      t.task_seq <- t.task_seq + 1;
      let seq = t.task_seq in
      slot.running <- Some (cid, seq);
      cell := Some (slot.wid, seq);
      let task = Queue.pop q.tasks in
      Mutex.unlock t.lock;
      let crashed =
        match task () with () -> false | exception _ -> true
      in
      Mutex.lock t.lock;
      cell := None;
      if inc.gone then
        (* The watchdog wrote this incarnation off mid-task and already
           completed the books (and spawned a successor). Exit without
           double-counting. *)
        Mutex.unlock t.lock
      else begin
        if crashed then begin
          t.task_failures <- t.task_failures + 1;
          slot.crashes <- slot.crashes + 1;
          if t.recycle_after > 0 && slot.crashes mod t.recycle_after = 0 then
            slot.retire <- true
        end;
        slot.running <- None;
        finish t cid q;
        t.live <- t.live - 1;
        t.completed <- t.completed + 1;
        if t.live = 0 then begin
          Condition.broadcast t.drained;
          (* Wake idle workers so they can observe the drained+stopping
             state and exit. *)
          if t.stopping then Condition.broadcast t.runnable
        end;
        if slot.retire && not t.stopping then begin
          (* Hygiene recycle: retire this incarnation and spawn a fresh
             domain into the slot (fresh domain-local state). *)
          slot.retire <- false;
          inc.gone <- true;
          respawn t slot;
          Mutex.unlock t.lock
        end
        else begin
          Mutex.unlock t.lock;
          loop ()
        end
      end
    end
  in
  loop ()

(** Spawn a fresh incarnation into [slot]. Caller holds [t.lock]. *)
and respawn t slot =
  let inc = { gone = false } in
  slot.inc <- inc;
  slot.dom <- Some (Domain.spawn (worker t slot inc));
  t.respawns <- t.respawns + 1

let create ?(bound = 64) ?(recycle_after = 32) ~workers () =
  let n = max 1 workers in
  let t =
    {
      lock = Mutex.create ();
      runnable = Condition.create ();
      drained = Condition.create ();
      clients = Hashtbl.create 16;
      ring = Queue.create ();
      bound = max 0 bound;
      recycle_after = max 0 recycle_after;
      slots =
        Array.init n (fun wid ->
            {
              wid;
              inc = { gone = false };
              dom = None;
              running = None;
              retire = false;
              crashes = 0;
            });
      task_seq = 0;
      stopping = false;
      live = 0;
      submitted = 0;
      rejected = 0;
      completed = 0;
      task_failures = 0;
      respawns = 0;
      abandoned = 0;
    }
  in
  Array.iter
    (fun slot -> slot.dom <- Some (Domain.spawn (worker t slot slot.inc)))
    t.slots;
  t

(** Enqueue [task] for [cid]. [`Busy] when the client's queue is at
    the bound (the task was {e not} accepted); [`Stopping] after
    {!shutdown}. *)
let submit t ~cid (task : task) : [ `Accepted | `Busy | `Stopping ] =
  Mutex.protect t.lock (fun () ->
      if t.stopping then `Stopping
      else
        let q = client_q t cid in
        if Queue.length q.tasks >= t.bound then begin
          t.rejected <- t.rejected + 1;
          `Busy
        end
        else begin
          Queue.push task q.tasks;
          t.live <- t.live + 1;
          t.submitted <- t.submitted + 1;
          enring t cid q;
          `Accepted
        end)

(** Write off the incarnation in slot [wid] {e if} it is still running
    task [seq] (the pair comes from {!current_slot}, recorded when the
    task started — a completed task wins any race against a late
    watchdog). The task is accounted completed — the caller must have
    answered its request already — and a fresh incarnation takes the
    slot. Returns [true] if the write-off happened. *)
let abandon t ~wid ~seq =
  Mutex.protect t.lock (fun () ->
      if wid < 0 || wid >= Array.length t.slots then false
      else
        let slot = t.slots.(wid) in
        match slot.running with
        | Some (cid, s) when s = seq && not slot.inc.gone ->
            slot.inc.gone <- true;
            slot.running <- None;
            t.abandoned <- t.abandoned + 1;
            (match Hashtbl.find_opt t.clients cid with
            | Some q -> finish t cid q
            | None -> ());
            t.live <- t.live - 1;
            t.completed <- t.completed + 1;
            if t.live = 0 then begin
              Condition.broadcast t.drained;
              if t.stopping then Condition.broadcast t.runnable
            end;
            (* The old domain is unreferenced from here on: it cannot
               be joined (it may never return) and exits silently if it
               ever does. *)
            respawn t slot;
            true
        | _ -> false)

(** Ask slot [wid]'s incarnation to retire and be replaced after its
    current (or next) task — the supervisor calls this when a worker's
    crash count says its domain-local state is suspect. *)
let recycle t ~wid =
  Mutex.protect t.lock (fun () ->
      if wid >= 0 && wid < Array.length t.slots then
        t.slots.(wid).retire <- true)

(** Record a crashing request against slot [wid] (the supervisor's
    guard catches the exception before the scheduler ever sees it, so
    it reports here). Returns the slot's total crash count. *)
let note_crash t ~wid =
  Mutex.protect t.lock (fun () ->
      if wid >= 0 && wid < Array.length t.slots then begin
        let slot = t.slots.(wid) in
        slot.crashes <- slot.crashes + 1;
        if t.recycle_after > 0 && slot.crashes mod t.recycle_after = 0 then
          slot.retire <- true;
        slot.crashes
      end
      else 0)

(** Stop admitting work. Already-accepted tasks (queued and in-flight)
    still run to completion. *)
let shutdown t =
  Mutex.protect t.lock (fun () ->
      t.stopping <- true;
      Condition.broadcast t.runnable)

(** Block until every accepted task has completed and all (current
    incarnations of) workers have exited. Call after {!shutdown}.
    Abandoned incarnations are not waited for — they may never
    return. *)
let wait t =
  Mutex.lock t.lock;
  while t.live > 0 do
    Condition.wait t.drained t.lock
  done;
  let doms =
    Array.to_list t.slots |> List.filter_map (fun s -> s.dom)
  in
  Array.iter (fun s -> s.dom <- None) t.slots;
  Mutex.unlock t.lock;
  List.iter Domain.join doms

type stats = {
  workers : int;
  pending : int;  (** accepted but not yet completed *)
  clients : int;  (** clients with queued or in-flight work *)
  submitted : int;
  rejected : int;
  completed : int;
  task_failures : int;
  worker_crashes : int;  (** per-slot crash counters, summed *)
  respawns : int;
  abandoned : int;
}

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        workers = Array.length t.slots;
        pending = t.live;
        clients = Hashtbl.length t.clients;
        submitted = t.submitted;
        rejected = t.rejected;
        completed = t.completed;
        task_failures = t.task_failures;
        worker_crashes =
          Array.fold_left (fun acc s -> acc + s.crashes) 0 t.slots;
        respawns = t.respawns;
        abandoned = t.abandoned;
      })

(** Per-slot crash counters, for the daemon's [stats] op. *)
let crash_counts t =
  Mutex.protect t.lock (fun () ->
      Array.to_list (Array.map (fun s -> s.crashes) t.slots))
