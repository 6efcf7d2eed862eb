(** Engine tests: parallel verification is observationally identical to
    sequential verification (for positive AND negative suite entries),
    and the verdict cache survives concurrent hammering from several
    domains. *)

module V = Verifier.Exec
module Pr = Suite.Programs
module E = Engine

let outcome : V.outcome Alcotest.testable =
  Alcotest.testable
    (fun ppf o -> V.pp_outcome ppf o)
    ( = )

let proc_results = Alcotest.(list (pair string outcome))

let engine_results config =
  let report =
    E.verify_programs ~config
      (List.map (fun (e : Pr.entry) -> (e.name, e.prog)) Pr.all)
  in
  List.map (fun (g : E.group_result) -> (g.E.group, g.E.outcomes)) report.E.groups

(* 1. Per-entry: 4 worker domains produce exactly the sequential
   verifier's outcomes, including failure messages of the negative
   entries. *)
let test_parallel_matches_sequential () =
  let par =
    engine_results { E.default_config with E.domains = 4 }
  in
  List.iter
    (fun (e : Pr.entry) ->
      let seq = V.verify e.prog in
      Alcotest.check proc_results e.name seq (List.assoc e.name par))
    Pr.all

(* 2. The engine report accounts every job, obligations route through
   the incremental sessions, and the one-shot solver is reached only
   through session fallbacks. *)
let test_engine_stats () =
  let progs =
    List.concat_map
      (fun r ->
        List.map
          (fun (e : Pr.entry) -> (Printf.sprintf "%s#%d" e.name r, e.prog))
          Pr.positive)
      [ 0; 1 ]
  in
  let njobs =
    List.fold_left (fun n (_, p) -> n + List.length p.V.procs) 0 progs
  in
  let report =
    E.verify_programs
      ~config:{ E.default_config with E.domains = 2 }
      progs
  in
  let s = report.E.stats in
  Alcotest.(check int) "job count" njobs s.E.jobs;
  Alcotest.(check int)
    "jobs partitioned over domains" njobs
    (Array.fold_left ( + ) 0 s.E.pool.E.Pool.jobs_per_domain);
  Alcotest.(check bool)
    "obligations went through sessions" true
    (s.E.smt.Smt.Stats.session_checks > 0);
  Alcotest.(check int)
    "queries = session fallbacks" s.E.smt.Smt.Stats.session_fallbacks
    s.E.smt.Smt.Stats.queries;
  Alcotest.(check bool) "all verified" true (List.for_all E.group_ok report.E.groups)

(* 3. qcheck: hammer one shared verdict cache from four domains racing
   stores and lookups on the same keys; every hit must be exactly the
   stored verdicts, and every lookup counts as a hit or a miss. *)

let verdicts_of i : E.Vc_cache.verdicts =
  [
    (Printf.sprintf "p%d" i, V.Verified);
    ( Printf.sprintf "q%d" i,
      if i mod 2 = 0 then V.Verified else V.Failed (string_of_int i) );
  ]

let cache_hammer =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"vc-cache-parallel-consistent" ~count:30
       QCheck.(list_of_size (Gen.int_range 4 10) (int_range 0 20))
       (fun keys ->
         let cache = E.Vc_cache.create () in
         (* Each domain walks the keys at a different starting offset,
            storing on a miss, so lookups and stores of one key race
            across domains. *)
         let work offset () =
           let arr = Array.of_list keys in
           let n = Array.length arr in
           List.init n (fun i ->
               let k = arr.((i + offset) mod n) in
               let key = string_of_int k in
               match E.Vc_cache.lookup_verdicts cache key with
               | Some (v, _) -> v = verdicts_of k
               | None ->
                   E.Vc_cache.store_verdicts cache key (verdicts_of k);
                   true)
         in
         let spawned = List.init 3 (fun d -> Domain.spawn (work (d + 1))) in
         let mine = work 0 () in
         List.for_all (List.for_all Fun.id)
           (mine :: List.map Domain.join spawned)
         && E.Vc_cache.hits cache + E.Vc_cache.misses cache
            = 4 * List.length keys))

let () =
  Alcotest.run "engine"
    [
      ( "engine",
        [
          Alcotest.test_case "parallel-matches-sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "engine-stats" `Quick test_engine_stats;
          cache_hammer;
        ] );
    ]
