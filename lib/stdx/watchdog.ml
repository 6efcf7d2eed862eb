(** Hard preemption for budgets that stopped being cooperative.

    {!Budget} is a contract: long-running loops poll, and a poll raises
    once the deadline passes. A loop that stops polling (a solver bug,
    a pathological VC in un-instrumented code) defeats the contract —
    the deadline fires but nobody reads it, and the worker domain is
    wedged. The watchdog is the layer above the contract: a monitor
    that watches every in-flight activity's deadline from the outside
    and escalates in two stages when one blows through it.

    - {b soft} — at [deadline × grace] the watch's [cancel] callback
      fires (typically {!Budget.cancel} on the activity's ambient
      budget, which any domain may call). A loop that still polls,
      however rarely, dies at its next poll point.
    - {b hard} — at [deadline × grace × 2] the [abandon] callback
      fires: the activity is declared lost, and the owner is expected
      to answer on its behalf and replace the worker. An OCaml domain
      cannot be killed from outside, so "hard preemption" means the
      stuck domain is written off — it costs one worker, not the
      process.

    Both callbacks fire at most once per watch, from the monitor
    domain; they must be quick and must not raise (escapes are
    swallowed and counted). Completing activities call {!unwatch},
    which wins any race with the monitor by taking the same lock. *)

type state = Armed | Soft_fired | Hard_fired | Done

type watch = {
  id : int;
  soft_at : float;  (** absolute seconds: fire [cancel] *)
  hard_at : float;  (** absolute seconds: fire [abandon] *)
  cancel : unit -> unit;
  abandon : unit -> unit;
  mutable state : state;
}

type t = {
  lock : Mutex.t;
  watches : (int, watch) Hashtbl.t;
  mutable next_id : int;
  mutable stopping : bool;
  mutable monitor : unit Domain.t option;
  interval_s : float;
  (* Counters survive their watches; the daemon's [stats] op reports
     them. *)
  watched : int Atomic.t;
  soft_cancels : int Atomic.t;
  hard_abandons : int Atomic.t;
  callback_errors : int Atomic.t;
}

(** How far past the deadline an activity may run before the soft
    stage fires. 1.0 would preempt legitimate work racing its own
    final poll; the default leaves generous room. *)
let default_grace = 4.0

let swallow t f = try f () with _ -> Atomic.incr t.callback_errors

(** One monitor pass: fire every due stage. Callbacks run outside the
    lock — they may call back into {!unwatch}. Public so tests can
    drive the clock deterministically without the monitor domain. *)
let scan ?now t =
  let now = match now with Some n -> n | None -> Unix.gettimeofday () in
  let due =
    Mutex.protect t.lock (fun () ->
        Hashtbl.fold
          (fun _ w acc ->
            match w.state with
            | Armed when now >= w.hard_at ->
                w.state <- Hard_fired;
                `Both w :: acc
            | Armed when now >= w.soft_at ->
                w.state <- Soft_fired;
                `Soft w :: acc
            | Soft_fired when now >= w.hard_at ->
                w.state <- Hard_fired;
                `Hard w :: acc
            | _ -> acc)
          t.watches [])
  in
  List.iter
    (function
      | `Soft w ->
          Atomic.incr t.soft_cancels;
          swallow t w.cancel
      | `Hard w ->
          Atomic.incr t.hard_abandons;
          swallow t w.abandon
      | `Both w ->
          (* First scan after a long stall: both stages are overdue.
             Fire them in order — cancel first so a loop that resumed
             polling can still die cooperatively before the owner
             writes it off. *)
          Atomic.incr t.soft_cancels;
          swallow t w.cancel;
          Atomic.incr t.hard_abandons;
          swallow t w.abandon)
    due

let rec monitor_loop t () =
  let stop = Mutex.protect t.lock (fun () -> t.stopping) in
  if not stop then begin
    scan t;
    Unix.sleepf t.interval_s;
    monitor_loop t ()
  end

(** [monitor:false] builds a passive watchdog for deterministic tests:
    no domain is spawned and the caller drives {!scan} by hand. *)
let create ?(interval_s = 0.05) ?(monitor = true) () =
  let t =
    {
      lock = Mutex.create ();
      watches = Hashtbl.create 16;
      next_id = 0;
      stopping = false;
      monitor = None;
      interval_s;
      watched = Atomic.make 0;
      soft_cancels = Atomic.make 0;
      hard_abandons = Atomic.make 0;
      callback_errors = Atomic.make 0;
    }
  in
  if monitor then t.monitor <- Some (Domain.spawn (monitor_loop t));
  t

(** Arm a watch for an activity whose cooperative deadline is
    [deadline_ms]. [cancel] fires at [deadline_ms × grace], [abandon]
    at twice that. *)
let watch t ?(grace = default_grace) ~deadline_ms ~cancel ~abandon () =
  let now = Unix.gettimeofday () in
  let soft = deadline_ms *. grace /. 1000.0 in
  Mutex.protect t.lock (fun () ->
      let id = t.next_id in
      t.next_id <- id + 1;
      let w =
        {
          id;
          soft_at = now +. soft;
          hard_at = now +. (2.0 *. soft);
          cancel;
          abandon;
          state = Armed;
        }
      in
      Hashtbl.replace t.watches id w;
      Atomic.incr t.watched;
      w)

(** Disarm [w] (the activity completed). Returns the furthest stage
    that fired while it was armed, so the owner can tell a clean
    completion from one that raced the monitor. *)
let unwatch t (w : watch) =
  Mutex.protect t.lock (fun () ->
      let final = w.state in
      w.state <- Done;
      Hashtbl.remove t.watches w.id;
      match final with
      | Armed | Done -> `Clean
      | Soft_fired -> `Was_cancelled
      | Hard_fired -> `Was_abandoned)

let stop t =
  Mutex.protect t.lock (fun () -> t.stopping <- true);
  Option.iter Domain.join t.monitor;
  t.monitor <- None

(** The watchdog's counters under their [stats]-op keys. *)
let counters t =
  Mutex.protect t.lock (fun () ->
      [
        ("active", Hashtbl.length t.watches);
        ("watched", Atomic.get t.watched);
        ("cancels", Atomic.get t.soft_cancels);
        ("abandons", Atomic.get t.hard_abandons);
        ("errors", Atomic.get t.callback_errors);
      ])
