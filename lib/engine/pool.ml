(** A fixed-size pool of worker domains draining a shared queue.

    Built on OCaml 5 stdlib primitives only ([Domain], [Atomic]) — no
    domainslib in the sealed package set. The queue is the input array
    itself with an atomic index dispenser, which gives dynamic load
    balancing: a domain that drew a cheap job comes back for the next
    one immediately, so one slow job cannot strand work behind it.

    Result slots are disjoint array cells, written by exactly one
    worker each; [Domain.join] publishes them to the caller
    (happens-before), so no lock is needed on the result side. *)

type stats = {
  domains : int;
  jobs_per_domain : int array;
  ms_per_domain : float array;  (** wall-clock per worker, spawn→drain *)
  steals : int;
      (** jobs executed beyond a worker's even static share — how much
          work the dynamic queue moved between domains *)
}

(** [run ~domains ~prologue ~epilogue f xs] applies [f] to every
    element of [xs] on a pool of [domains] workers (the calling domain
    is worker 0; [domains - 1] are spawned). [prologue]/[epilogue] run
    once per worker domain around its drain — the engine uses them to
    reset and snapshot that domain's solver statistics. Returns the
    results in input order, the per-worker epilogue values, and queue
    statistics.

    [f] must not raise: an escaping exception kills its worker and is
    re-raised at the join, losing that worker's remaining slots. *)
let run ~domains ?(prologue = fun () -> ()) ~epilogue
    (f : 'a -> 'b) (xs : 'a array) : 'b array * 'c array * stats =
  let n = Array.length xs in
  let domains = max 1 (min domains (max 1 n)) in
  let next = Atomic.make 0 in
  let results : 'b option array = Array.make n None in
  let jobs_per_domain = Array.make domains 0 in
  let ms_per_domain = Array.make domains 0.0 in
  let worker d () =
    let t0 = Unix.gettimeofday () in
    prologue ();
    let rec drain count =
      let i = Atomic.fetch_and_add next 1 in
      if i >= n then count
      else begin
        results.(i) <- Some (f xs.(i));
        drain (count + 1)
      end
    in
    let count = drain 0 in
    let out = epilogue () in
    jobs_per_domain.(d) <- count;
    ms_per_domain.(d) <- (Unix.gettimeofday () -. t0) *. 1000.0;
    out
  in
  let spawned =
    Array.init (domains - 1) (fun d -> Domain.spawn (worker (d + 1)))
  in
  let out0 = worker 0 () in
  let outs =
    Array.append [| out0 |] (Array.map Domain.join spawned)
  in
  let share = (n + domains - 1) / domains in
  let steals =
    Array.fold_left (fun acc j -> acc + max 0 (j - share)) 0 jobs_per_domain
  in
  ( Array.map
      (function Some r -> r | None -> assert false (* every slot drained *))
      results,
    outs,
    { domains; jobs_per_domain; ms_per_domain; steals } )
