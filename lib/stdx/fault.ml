(** Seeded fault injection for chaos testing.

    The verification engine claims a soundness property under faults:
    an injected failure may degrade a verdict to [Timeout]/[Crashed],
    but it must never flip [Verified] into [Failed] or vice versa.
    This module provides the injection points that property is tested
    against: named {e sites} in the solver, the incremental session
    layer, the verdict cache, the pool workers, the daemon's socket layer,
    and the supervision layer (worker crashes, non-polling stalls,
    torn disk-cache publications), each firing with a configured
    probability drawn from a seeded deterministic stream.

    Activation: the [DAENERYS_FAULTS] environment variable, or
    {!configure} / {!configure_from_string} from the CLI and tests.
    The spec grammar is [site=prob] pairs plus an optional seed,
    comma-separated:

    {v DAENERYS_FAULTS="session=0.3,cache=0.1,seed=42" v}

    Draws are deterministic: the k-th draw at a site hashes
    [(seed, site, k)], with k from a per-site atomic counter — a fixed
    seed replays the same fault schedule on a sequential run, and on a
    parallel run the schedule depends only on the interleaving (the
    soundness property quantifies over {e all} schedules, so that is
    exactly what the chaos tests want to vary). *)

type site =
  | Solver
  | Session
  | Cache
  | Pool
  | Socket
  | Worker  (** supervisor-guarded request body raises (worker crash) *)
  | Stall  (** worker wedges in a non-polling loop until abandoned *)
  | Disk  (** disk-cache publication crashes between write and rename *)

let site_name = function
  | Solver -> "solver"
  | Session -> "session"
  | Cache -> "cache"
  | Pool -> "pool"
  | Socket -> "socket"
  | Worker -> "worker"
  | Stall -> "stall"
  | Disk -> "disk"

let all_sites = [ Solver; Session; Cache; Pool; Socket; Worker; Stall; Disk ]

exception Injected of string  (** the site that fired *)

type config = {
  seed : int;
  probs : (site * float) list;  (** absent sites never fire *)
  counters : (site * int Atomic.t) list;  (** draw streams, per site *)
  fired : (site * int Atomic.t) list;  (** injections that actually hit *)
}

let make_config ~seed probs =
  {
    seed;
    probs;
    counters = List.map (fun s -> (s, Atomic.make 0)) all_sites;
    fired = List.map (fun s -> (s, Atomic.make 0)) all_sites;
  }

(* The active configuration. [None] = faults off (the common case:
   one atomic read per injection point). *)
let state : config option Atomic.t = Atomic.make None

let parse spec : (config, string) result =
  let fields =
    String.split_on_char ',' spec
    |> List.concat_map (String.split_on_char ';')
    |> List.filter (fun s -> String.trim s <> "")
  in
  let rec go seed probs = function
    | [] -> Ok (make_config ~seed probs)
    | f :: rest -> (
        match String.index_opt f '=' with
        | None -> Error (Printf.sprintf "fault spec: expected key=value in %S" f)
        | Some i -> (
            let k = String.trim (String.sub f 0 i) in
            let v = String.trim (String.sub f (i + 1) (String.length f - i - 1)) in
            match k with
            | "seed" -> (
                match int_of_string_opt v with
                | Some s -> go s probs rest
                | None -> Error (Printf.sprintf "fault spec: bad seed %S" v))
            | "solver" | "session" | "cache" | "pool" | "socket" | "worker"
            | "stall" | "disk" -> (
                match float_of_string_opt v with
                | Some p when p >= 0.0 && p <= 1.0 ->
                    let site =
                      List.find (fun s -> String.equal (site_name s) k) all_sites
                    in
                    go seed ((site, p) :: probs) rest
                | _ ->
                    Error
                      (Printf.sprintf
                         "fault spec: probability for %s must be in [0;1], got %S"
                         k v))
            | _ -> Error (Printf.sprintf "fault spec: unknown site %S" k)))
  in
  go 0 [] fields

let configure_from_string spec : (unit, string) result =
  match parse spec with
  | Ok c ->
      Atomic.set state (Some c);
      Ok ()
  | Error _ as e -> e

let configure ?(seed = 0) probs =
  Atomic.set state (Some (make_config ~seed probs))

let clear () = Atomic.set state None

(* Environment activation happens once, at module initialisation —
   before any domain is spawned, so no two domains can race on it.
   [configure]/[clear] override it afterwards. *)
let () =
  match Sys.getenv_opt "DAENERYS_FAULTS" with
  | None | Some "" -> ()
  | Some spec -> (
      match configure_from_string spec with
      | Ok () -> ()
      | Error m -> Fmt.epr "warning: ignoring DAENERYS_FAULTS: %s@." m)

let active () = Atomic.get state <> None

(** Deterministic Bernoulli draw for [site]: true iff this draw fires. *)
let draw (c : config) site =
  match List.assoc_opt site c.probs with
  | None -> false
  | Some p when p <= 0.0 -> false
  | Some p ->
      let k = Atomic.fetch_and_add (List.assoc site c.counters) 1 in
      let h = Hashtbl.hash (c.seed, site_name site, k) land 0xFFFF in
      let hit = float_of_int h /. 65536.0 < p in
      if hit then Atomic.incr (List.assoc site c.fired);
      hit

(** Non-raising draw; used where the fault is a silent corruption (the
    cache flips stored bytes) rather than an exception. *)
let fires site =
  match Atomic.get state with None -> false | Some c -> draw c site

(** Raise {!Injected} if this draw fires — the exception-shaped sites
    (solver, session, pool). *)
let inject site = if fires site then raise (Injected (site_name site))

(** How many injections actually fired at [site] since {!configure}. *)
let fired site =
  match Atomic.get state with
  | None -> 0
  | Some c -> Atomic.get (List.assoc site c.fired)

let seed () =
  match Atomic.get state with None -> None | Some c -> Some c.seed
