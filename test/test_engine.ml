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

(* 2b. Every session fallback over the suite is attributed to exactly
   one reason, and the fallbacks draw on their sessions' lemma
   stores. *)
let test_fallback_reasons () =
  let report =
    E.verify_programs
      ~config:{ E.default_config with E.domains = 1 }
      (List.map (fun (e : Pr.entry) -> (e.name, e.prog)) Pr.all)
  in
  let s = report.E.stats.E.smt in
  let reasons =
    List.fold_left
      (fun n -> function _, `Int v -> n + v | _, `Float _ -> n)
      0
      (Stdx.Counters.to_list Smt.Stats.fallback_reasons s)
  in
  Alcotest.(check bool) "the suite falls back" true
    (s.Smt.Stats.session_fallbacks > 0);
  Alcotest.(check int) "reasons sum to session_fallbacks"
    s.Smt.Stats.session_fallbacks reasons;
  Alcotest.(check bool) "lemmas seeded" true (s.Smt.Stats.lemmas_seeded > 0)

(* 3. One group per input program, in input order — including a
   program without procedures (a group with no outcomes) and a repeated
   name — with and without the lint gate. *)
let test_one_group_per_program () =
  let empty = { V.procs = []; preds = Stdx.Smap.empty; invs = [] } in
  let progs =
    match Pr.positive with
    | a :: b :: _ ->
        [
          (a.name, a.prog); ("empty", empty); (b.name, b.prog); (a.name, a.prog);
        ]
    | _ -> Alcotest.fail "suite has fewer than two positive entries"
  in
  List.iter
    (fun (what, config) ->
      let report = E.verify_programs ~config progs in
      Alcotest.(check (list string))
        (what ^ ": group names in input order") (List.map fst progs)
        (List.map (fun (g : E.group_result) -> g.E.group) report.E.groups);
      List.iter2
        (fun (name, prog) (g : E.group_result) ->
          Alcotest.check proc_results (what ^ ": " ^ name) (V.verify prog)
            g.E.outcomes)
        progs report.E.groups)
    [
      ("default", E.default_config);
      ( "lint, 2 domains",
        {
          E.default_config with
          E.domains = 2;
          options = E.Options.make ~lint:true ();
        } );
    ]

(* 3b. The fixed-seed synthetic corpus: every verdict equals its
   spec's [expect_fail], and the full verdict manifest is pinned — for
   the quick corpus on two domains and the full corpus on one, each
   with the abstract pre-discharge on and off (the pass may only
   short-circuit Valid verdicts, never move one). With the pass off the
   session decides every linear goal itself, by theory probes that
   never fall back or run out of fuel. *)
let quick_corpus_manifest = "18472bf8521a62c8e134f399afd02c2a"
let full_corpus_manifest = "2306f952fb687d93a1c3de805abaaf9b"

let test_corpus_golden () =
  let module C = Suite.Corpus in
  List.iter
    (fun (size, domains, absint, expected) ->
      let what =
        Printf.sprintf "corpus %d, %d domain(s), absint %b" size domains absint
      in
      let specs = C.generate ~seed:42 ~size in
      let report =
        E.verify_programs
          ~config:
            {
              E.default_config with
              E.domains;
              options = { E.Options.default with absint };
            }
          (List.map (fun (s : C.spec) -> (s.C.name, s.C.program)) specs)
      in
      let verdicts =
        List.map
          (fun (g : E.group_result) -> (g.E.group, not (E.group_ok g)))
          report.E.groups
      in
      Alcotest.(check (list string))
        (what ^ ": verdicts that differ from expect_fail") []
        (List.filter_map
           (fun ((s : C.spec), v) ->
             if v = (s.C.name, s.C.expect_fail) then None else Some s.C.name)
           (List.combine specs verdicts));
      Alcotest.(check string)
        (what ^ ": manifest") expected (C.manifest_digest verdicts);
      (* The full corpus's solver work, pinned: absint settles almost
         every obligation, and a procedure whose context stays empty
         spends no theory check. *)
      if size = 2000 && absint then begin
        let st = report.E.stats.E.smt and vs = report.E.stats.E.vstats in
        List.iter
          (fun (name, want, got) ->
            Alcotest.(check int) (what ^ ": " ^ name) want got)
          [
            ("theory_checks", 362, st.Smt.Stats.theory_checks);
            ("session_checks", 2181, st.Smt.Stats.session_checks);
            ("obligations", 6580, vs.Verifier.Vstats.obligations);
            ("absint_discharged", 6399, vs.Verifier.Vstats.absint_discharged);
          ]
      end;
      if not absint then begin
        let st = report.E.stats.E.smt in
        Alcotest.(check int)
          (what ^ ": session fallbacks") 0 st.Smt.Stats.session_fallbacks;
        Alcotest.(check int) (what ^ ": fuel_simplex") 0 st.Smt.Stats.fuel_simplex;
        Alcotest.(check int)
          (what ^ ": fuel_combination") 0 st.Smt.Stats.fuel_combination
      end)
    [
      (120, 2, true, quick_corpus_manifest);
      (120, 2, false, quick_corpus_manifest);
      (2000, 1, true, full_corpus_manifest);
      (2000, 1, false, full_corpus_manifest);
    ]

(* 4. Every counter of [Smt.Stats] and [Vstats] is in its [fields]
   list, once, with accessors that address its own record field; and
   [sum]/[diff] are pointwise over that list. *)

module C = Stdx.Counters

(** A record whose [i]-th counter is [vals.(i)] (floats in quarters, so
    sums and differences are exact). *)
let record_of ~create fields vals =
  let r = create () in
  List.iter2
    (fun f v ->
      match f with
      | C.Int (_, _, set) -> set r v
      | C.Float (_, _, set) -> set r (float_of_int v /. 4.0))
    fields vals;
  r

let test_fields_complete ~create fields () =
  let n = List.length fields in
  Alcotest.(check int)
    "every record field is in fields" (Obj.size (Obj.repr (create ()))) n;
  let names = List.map C.name fields in
  Alcotest.(check int)
    "names distinct" n (List.length (List.sort_uniq compare names));
  List.iteri
    (fun i name ->
      let one_hot = List.init n (fun j -> Bool.to_int (i = j)) in
      let r = record_of ~create fields one_hot in
      Alcotest.(check (list string))
        (name ^ " addresses its own field") [ name ]
        (List.filter_map
           (fun (k, v) -> if v = `Int 0 || v = `Float 0.0 then None else Some k)
           (C.to_list fields r)))
    names

let sum_props ~name ~create ~sum ?diff fields =
  let vals =
    QCheck.(list_of_size (Gen.return (List.length fields)) small_signed_int)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:200 (QCheck.pair vals vals) (fun (xs, ys) ->
         let a = record_of ~create fields xs in
         let b = record_of ~create fields ys in
         sum a (create ()) = a
         && match diff with None -> true | Some diff -> diff (sum a b) b = a))

(* 5. qcheck: hammer one shared verdict cache from four domains racing
   stores and lookups on the same keys; every hit must be exactly the
   stored verdicts, and every lookup counts as a hit or a miss. *)

let verdicts_of i : E.Vc_cache.verdicts =
  {
    outcomes =
      [
        (Printf.sprintf "p%d" i, V.Verified);
        ( Printf.sprintf "q%d" i,
          if i mod 2 = 0 then V.Verified else V.Failed (string_of_int i) );
      ];
    findings = (if i mod 3 = 0 then "" else Printf.sprintf "warning %d\n" i);
  }

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

(* Through the engine, with lint and absint on and off: every procedure
   of {!Int_ref.out_of_range_source} is a counted resource-out, never a
   verdict and never a crash. *)
let test_out_of_range () =
  let prog, _ =
    Verifier.Elab.program_of_string ~file:"out_of_range.hl"
      Int_ref.out_of_range_source
  in
  List.iter
    (fun absint ->
      let report =
        E.verify_programs
          ~config:
            {
              E.default_config with
              options = E.Options.make ~lint:true ~absint ();
            }
          [ ("out_of_range", prog) ]
      in
      let what = Printf.sprintf "absint %b" absint in
      List.iter
        (fun (g : E.group_result) ->
          List.iter
            (fun (p, o) ->
              Alcotest.check outcome (what ^ ": " ^ p)
                (V.Resource_out "integer out of range") o)
            g.E.outcomes)
        report.E.groups;
      let s = report.E.stats in
      Alcotest.(check (pair int int))
        (what ^ ": resource-outs, crashes") (5, 0)
        (s.E.resource_outs, s.E.crashes);
      Alcotest.(check int) (what ^ ": counted") 5
        s.E.vstats.Verifier.Vstats.int_out_of_range)
    [ true; false ]

let () =
  Alcotest.run "engine"
    [
      ( "engine",
        [
          Alcotest.test_case "parallel-matches-sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "engine-stats" `Quick test_engine_stats;
          Alcotest.test_case "fallback-reasons" `Quick test_fallback_reasons;
          Alcotest.test_case "one-group-per-program" `Quick
            test_one_group_per_program;
          Alcotest.test_case "corpus-golden" `Quick test_corpus_golden;
          Alcotest.test_case "out-of-range" `Quick test_out_of_range;
          cache_hammer;
        ] );
      ( "counters",
        [
          Alcotest.test_case "smt-stats-fields-complete" `Quick
            (test_fields_complete ~create:Smt.Stats.create Smt.Stats.fields);
          Alcotest.test_case "vstats-fields-complete" `Quick
            (test_fields_complete ~create:Verifier.Vstats.create
               Verifier.Vstats.fields);
          sum_props ~name:"smt-stats-sum-diff" ~create:Smt.Stats.create
            ~sum:Smt.Stats.sum ~diff:Smt.Stats.diff Smt.Stats.fields;
          sum_props ~name:"vstats-sum-zero" ~create:Verifier.Vstats.create
            ~sum:Verifier.Vstats.sum Verifier.Vstats.fields;
        ] );
    ]
