(** Tests for the [daenerys serve] subsystem: the JSON wire format,
    the request protocol, the fair FIFO-per-client scheduler, the
    two-tier (memory + disk) VC/verdict cache, and the daemon
    end-to-end over a real Unix-domain socket.

    The end-to-end properties mirror the PR's acceptance criteria:

    - concurrent clients get verdicts identical to a sequential run;
    - a repeat request for an unchanged program is served from the
      cache with {e no} solver work (the report's [queries] is 0), in
      this daemon generation or — via the disk tier — the next;
    - corrupt or truncated cache entries are evicted and re-solved,
      never trusted;
    - a full queue degrades to explicit [busy] responses;
    - injected socket/cache faults may slow responses down but never
      flip a verdict;
    - shutdown drains accepted work before acking. *)

module V = Verifier.Exec
module Pr = Suite.Programs
module E = Engine
module VC = Engine.Vc_cache
module F = Stdx.Fault
module J = Server.Json
module P = Server.Protocol
module R = Server.Render

(* Locating the example files: tests run in [_build/default/test], the
   dune deps put the sources next door in [../examples]. *)
let examples_dir =
  let rec find d fuel =
    let cand = Filename.concat d "examples" in
    if Sys.file_exists (Filename.concat cand "swap.hl") then cand
    else if fuel = 0 then Alcotest.fail "examples/ directory not found"
    else find (Filename.concat d Filename.parent_dir_name) (fuel - 1)
  in
  find (Sys.getcwd ()) 5

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let temp_dir () =
  let d = Filename.temp_file "daetest" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

(* ------------------------------------------------------------------ *)
(* JSON *)

let test_json_roundtrip () =
  let cases =
    [
      J.Null;
      J.Bool true;
      J.Bool false;
      J.Num 0.0;
      J.Num (-42.0);
      J.Num 3.5;
      J.Num 123456789012345.0;
      J.Num 9007199254740992.0;
      J.Num 1e300;
      J.Str "";
      J.Str "plain";
      J.Str "ends in an escape \\";
      J.Str "esc \" \\ \n \t \r quote";
      J.List [ J.Num 1.0; J.Str "two"; J.Null ];
      J.Obj
        [
          ("a", J.Num 1.0);
          ("nested", J.Obj [ ("b", J.List [ J.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      match J.parse (J.to_string v) with
      | Ok v' ->
          Alcotest.(check string)
            "reprint equal" (J.to_string v) (J.to_string v')
      | Error m -> Alcotest.failf "parse failed: %s" m)
    cases

let test_json_errors () =
  List.iter
    (fun s ->
      match J.parse s with
      | Ok _ -> Alcotest.failf "expected parse error on %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "{\"a\":1}x"; "12-3"; "+" ]

let test_json_unicode () =
  match J.parse "\"a\\u00e9b\"" with
  | Ok (J.Str s) -> Alcotest.(check string) "utf8 decode" "a\xc3\xa9b" s
  | Ok _ | Error _ -> Alcotest.fail "unicode escape"

(* ------------------------------------------------------------------ *)
(* Protocol *)

let test_protocol_roundtrip () =
  let check_req line k =
    match P.request_of_line line with
    | Ok r -> k r
    | Error m -> Alcotest.failf "parse %S: %s" line m
  in
  check_req
    (J.to_string
       (P.verify_request ~id:(J.Num 7.0) ~lint:true ~absint:false ~seed:11
          ~timeout_ms:250.0 ~retries:2 (P.Entry "swap")))
    (function
      | P.Verify
          {
            id = J.Num 7.0;
            target = P.Entry "swap";
            options = { lint = true; absint = false; seed = 11 };
            timeout_ms = Some 250.0;
            retries = Some 2;
          } ->
          ()
      | _ -> Alcotest.fail "verify fields");
  check_req (J.to_string (P.verify_request (P.Entry "swap"))) (function
    | P.Verify { options; timeout_ms = None; retries = None; _ }
      when options = E.Options.default ->
        ()
    | _ -> Alcotest.fail "options default when absent");
  check_req
    (J.to_string
       (P.lint_request ~id:(J.Num 3.0) ~absint:false (P.Entry "swap")))
    (function
      | P.Lint { id = J.Num 3.0; options = { absint = false; _ }; _ } -> ()
      | _ -> Alcotest.fail "lint absint");
  check_req
    (J.to_string
       (P.verify_request (P.Source { file = "f.hl"; source = "src" })))
    (function
      | P.Verify { target = P.Source { file = "f.hl"; source = "src" }; _ }
        ->
          ()
      | _ -> Alcotest.fail "source target");
  check_req (J.to_string (P.stats_request ~id:(J.Str "s") ())) (function
    | P.Stats { id = J.Str "s" } -> ()
    | _ -> Alcotest.fail "stats");
  check_req (J.to_string (P.shutdown_request ())) (function
    | P.Shutdown _ -> ()
    | _ -> Alcotest.fail "shutdown")

let test_protocol_errors () =
  List.iter
    (fun line ->
      match P.request_of_line line with
      | Ok _ -> Alcotest.failf "expected request error on %S" line
      | Error _ -> ())
    [
      "not json";
      "{}";
      "{\"op\":\"frobnicate\"}";
      "{\"op\":\"verify\"}";
      "{\"op\":\"verify\",\"name\":\"a\",\"source\":\"b\"}";
      (* A present field of the wrong type is an error, never its
         default. *)
      {|{"op":"verify","name":"swap","lint":"true"}|};
      {|{"op":"verify","name":"swap","lint":null}|};
      {|{"op":"verify","name":"swap","absint":0}|};
      {|{"op":"verify","name":"swap","seed":7.9}|};
      {|{"op":"verify","name":"swap","seed":1e300}|};
      {|{"op":"verify","name":"swap","seed":"7"}|};
      {|{"op":"verify","name":"swap","retries":1.5}|};
      {|{"op":"verify","name":"swap","retries":-1}|};
      {|{"op":"verify","name":"swap","timeout_ms":0}|};
      {|{"op":"verify","name":"swap","timeout_ms":-5}|};
      {|{"op":"verify","name":"swap","timeout_ms":1e999}|};
      {|{"op":"verify","name":"swap","timeout_ms":"500"}|};
      {|{"op":"lint","name":"swap","absint":"no"}|};
    ]

(* Options are the whole verdict-affecting part of a request: distinct
   options must never share a verdict-cache key or a breaker digest,
   and every options value must survive the wire. Seeds stay within
   the ±2^53 a JSON number carries exactly. *)
let gen_options =
  QCheck.Gen.(
    map3
      (fun lint absint seed -> { E.Options.lint; absint; seed })
      bool bool
      (frequency
         [ (3, int_range (-2) 2); (1, int_range (-(1 lsl 53)) (1 lsl 53)) ]))

let gen_target =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> P.Entry n) (string_size ~gen:printable (int_range 0 6));
        map
          (fun source -> P.Source { file = "f.hl"; source })
          (string_size ~gen:printable (int_range 0 12));
      ])

let print_options (o : E.Options.t) =
  Printf.sprintf "{lint=%b; absint=%b; seed=%d}" o.lint o.absint o.seed

let verify_of options target =
  P.Verify { id = J.Null; target; options; timeout_ms = None; retries = None }

let qcheck_options_distinct =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"options-keys-distinct" ~count:500
       (QCheck.make
          ~print:(fun (a, b, _) -> print_options a ^ " vs " ^ print_options b)
          QCheck.Gen.(triple gen_options gen_options gen_target))
       (fun (o1, o2, target) ->
         QCheck.assume (o1 <> o2);
         Server.Daemon.verdict_key o1 target
         <> Server.Daemon.verdict_key o2 target
         && Server.Daemon.request_digest (verify_of o1 target)
            <> Server.Daemon.request_digest (verify_of o2 target)))

(* The target half of the key: a reply names its file, so two targets
   — even one source under two file names, or the same characters
   split differently between file and source — never share an entry. *)
let qcheck_targets_distinct =
  (* A three-letter alphabet (NUL included) makes shared sources and
     shifted file/source splits common. *)
  let tiny =
    QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; '\x00' ]) (int_range 0 3))
  in
  let target =
    QCheck.Gen.(
      oneof
        [
          map (fun n -> P.Entry n) tiny;
          map2 (fun file source -> P.Source { file; source }) tiny tiny;
        ])
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"targets-keys-distinct" ~count:1000
       (QCheck.make QCheck.Gen.(triple gen_options target target))
       (fun (o, t1, t2) ->
         QCheck.assume (t1 <> t2);
         Server.Daemon.verdict_key o t1 <> Server.Daemon.verdict_key o t2))

let qcheck_options_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"options-wire-roundtrip" ~count:500
       (QCheck.make
          ~print:(fun (o, _) -> print_options o)
          QCheck.Gen.(pair gen_options gen_target))
       (fun ((o : E.Options.t), target) ->
         let back req =
           P.request_of_line (J.to_string (P.json_of_request req))
         in
         (match
            P.request_of_line
              (J.to_string
                 (P.verify_request ~lint:o.lint ~absint:o.absint ~seed:o.seed
                    target))
          with
         | Ok (P.Verify v) -> v.options = o && v.target = target
         | _ -> false)
         &&
         match back (P.Lint { id = J.Null; target; options = o }) with
         | Ok (P.Lint l) -> l.options = o
         | _ -> false))

(* ------------------------------------------------------------------ *)
(* Scheduler *)

type gate = { gm : Mutex.t; gc : Condition.t; mutable opened : bool }

let gate () = { gm = Mutex.create (); gc = Condition.create (); opened = false }

let wait_gate g =
  Mutex.protect g.gm (fun () ->
      while not g.opened do
        Condition.wait g.gc g.gm
      done)

let open_gate g =
  Mutex.protect g.gm (fun () ->
      g.opened <- true;
      Condition.broadcast g.gc)

let test_scheduler_fifo_fair () =
  let s = Server.Scheduler.create ~bound:16 ~workers:1 () in
  let g = gate () in
  let started = Atomic.make false in
  let lm = Mutex.create () in
  let log = ref [] in
  let record x () = Mutex.protect lm (fun () -> log := x :: !log) in
  (* Hold the single worker on a blocker so the later submissions are
     all queued before anything runs — the drain order is then fully
     determined by the scheduling policy. *)
  (match
     Server.Scheduler.submit s ~cid:0 (fun () ->
         Atomic.set started true;
         wait_gate g)
   with
  | `Accepted -> ()
  | _ -> Alcotest.fail "blocker rejected");
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  List.iter
    (fun (cid, x) ->
      match Server.Scheduler.submit s ~cid (record x) with
      | `Accepted -> ()
      | _ -> Alcotest.failf "submit %s rejected" x)
    [ (1, "a1"); (1, "a2"); (1, "a3"); (2, "b1"); (2, "b2") ];
  open_gate g;
  Server.Scheduler.shutdown s;
  Server.Scheduler.wait s;
  (* Round-robin across clients, FIFO within each: client 1 and 2
     alternate, a-tasks and b-tasks each in submission order. *)
  Alcotest.(check (list string))
    "fair round-robin, FIFO per client"
    [ "a1"; "b1"; "a2"; "b2"; "a3" ]
    (List.rev !log);
  let st = Server.Scheduler.stats s in
  Alcotest.(check int) "completed" 6 st.Server.Scheduler.completed;
  Alcotest.(check int) "no failures" 0 st.Server.Scheduler.task_failures

let test_scheduler_backpressure () =
  let s = Server.Scheduler.create ~bound:1 ~workers:1 () in
  let g = gate () in
  let started = Atomic.make false in
  ignore
    (Server.Scheduler.submit s ~cid:0 (fun () ->
         Atomic.set started true;
         wait_gate g));
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let accept r = match r with `Accepted -> true | _ -> false in
  Alcotest.(check bool)
    "first fits the bound" true
    (accept (Server.Scheduler.submit s ~cid:1 (fun () -> ())));
  Alcotest.(check bool)
    "second is rejected, not buffered" false
    (accept (Server.Scheduler.submit s ~cid:1 (fun () -> ())));
  (* Backpressure is per client: another client still gets in. *)
  Alcotest.(check bool)
    "other client unaffected" true
    (accept (Server.Scheduler.submit s ~cid:2 (fun () -> ())));
  open_gate g;
  Server.Scheduler.shutdown s;
  Server.Scheduler.wait s;
  let st = Server.Scheduler.stats s in
  Alcotest.(check int) "one rejection" 1 st.Server.Scheduler.rejected;
  Alcotest.(check int) "accepted all ran" 3 st.Server.Scheduler.completed

let test_scheduler_drain () =
  let s = Server.Scheduler.create ~bound:64 ~workers:3 () in
  let n = Atomic.make 0 in
  for i = 1 to 20 do
    match Server.Scheduler.submit s ~cid:(i mod 4) (fun () -> Atomic.incr n) with
    | `Accepted -> ()
    | _ -> Alcotest.fail "submit rejected"
  done;
  Server.Scheduler.shutdown s;
  Server.Scheduler.wait s;
  Alcotest.(check int) "every accepted task ran" 20 (Atomic.get n);
  (match Server.Scheduler.submit s ~cid:0 (fun () -> ()) with
  | `Stopping -> ()
  | _ -> Alcotest.fail "submit after shutdown must report Stopping");
  let st = Server.Scheduler.stats s in
  Alcotest.(check int) "completed = submitted" st.Server.Scheduler.submitted
    st.Server.Scheduler.completed

(* ------------------------------------------------------------------ *)
(* The two-tier cache *)

let good : VC.verdicts =
  {
    outcomes = [ ("p", V.Verified); ("q", V.Failed "bad") ];
    findings = "warning[DA024] f.hl:1:1: unused\n";
  }

let lookup c key = Option.map fst (VC.lookup_verdicts c key)

let test_cache_disk_tier () =
  let dir = temp_dir () in
  let c1 = VC.create ~disk_dir:dir ~fingerprint:"fp" () in
  VC.store_verdicts c1 "vc-a" good;
  Alcotest.(check bool) "memory hit" true (lookup c1 "vc-a" = Some good);
  Alcotest.(check int) "mem hit counted" 1 (VC.hits c1);
  (* A fresh instance over the same directory: the disk tier answers,
     and the hit is promoted so the next probe is a memory hit. *)
  let c2 = VC.create ~disk_dir:dir ~fingerprint:"fp" () in
  Alcotest.(check bool) "disk hit" true (lookup c2 "vc-a" = Some good);
  Alcotest.(check int) "disk hit counted" 1 (VC.disk_hits c2);
  Alcotest.(check bool) "promoted" true (lookup c2 "vc-a" = Some good);
  Alcotest.(check int) "promoted to memory" 1 (VC.hits c2);
  Alcotest.(check bool) "absent key misses" true (lookup c2 "vc-b" = None);
  Alcotest.(check int) "miss counted" 1 (VC.misses c2)

let test_cache_corrupt_disk_evicted () =
  List.iter
    (fun mode ->
      let dir = temp_dir () in
      let c1 = VC.create ~disk_dir:dir ~fingerprint:"fp" () in
      VC.store_verdicts c1 "vc-a" good;
      let c2 = VC.create ~disk_dir:dir ~fingerprint:"fp" () in
      Alcotest.(check bool)
        "corruption applied" true
        (VC.corrupt_disk_entry ~mode c2 "vc-a");
      Alcotest.(check bool)
        "corrupt entry not trusted" true
        (lookup c2 "vc-a" = None);
      Alcotest.(check int) "counted corrupt" 1 (VC.corrupt c2);
      Alcotest.(check int) "evicted from disk" 0 (VC.disk_entries c2);
      (* The slot is reusable: a re-verification repopulates both tiers. *)
      VC.store_verdicts c2 "vc-a" good;
      Alcotest.(check bool) "recovered" true (lookup c2 "vc-a" = Some good))
    [ `Flip; `Truncate ]

let test_cache_fingerprint_isolation () =
  let dir = temp_dir () in
  let c1 = VC.create ~disk_dir:dir ~fingerprint:"build-1" () in
  VC.store_verdicts c1 "vc-a" good;
  (* A "rebuilt" verifier: same directory, different fingerprint — the
     old entry must not be replayed. *)
  let c2 = VC.create ~disk_dir:dir ~fingerprint:"build-2" () in
  Alcotest.(check bool)
    "stale build never replays" true
    (lookup c2 "vc-a" = None);
  Alcotest.(check int) "counted as a miss" 1 (VC.misses c2);
  (* The original build still hits its own entries. *)
  let c3 = VC.create ~disk_dir:dir ~fingerprint:"build-1" () in
  Alcotest.(check bool)
    "original build unaffected" true
    (lookup c3 "vc-a" = Some good)

let test_cache_lru_bound () =
  let dir = temp_dir () in
  let c = VC.create ~disk_dir:dir ~max_bytes:300 ~fingerprint:"fp" () in
  for i = 1 to 6 do
    VC.store_verdicts c (Printf.sprintf "vc-%d" i) good
  done;
  Alcotest.(check bool)
    (Printf.sprintf "disk stays bounded (%d bytes)" (VC.disk_bytes c))
    true
    (VC.disk_bytes c <= 300);
  Alcotest.(check bool) "something was evicted" true (VC.disk_entries c < 6);
  (* LRU: the most recent store survives, the oldest went first. A
     fresh instance sees only what is on disk. *)
  let c' = VC.create ~disk_dir:dir ~max_bytes:300 ~fingerprint:"fp" () in
  Alcotest.(check bool) "newest survives" true (lookup c' "vc-6" = Some good);
  Alcotest.(check bool) "oldest evicted" true (lookup c' "vc-1" = None)

let test_cache_crash_recovery () =
  let dir = temp_dir () in
  let write path s =
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc
  in
  (* Store one entry first so its on-disk name is observable, then a
     second survivor. *)
  let c1 = VC.create ~disk_dir:dir ~fingerprint:"fp" () in
  VC.store_verdicts c1 "vc-dead" good;
  let dead_file =
    match
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".vc")
    with
    | [ f ] -> f
    | fs -> Alcotest.failf "expected one entry, found %d" (List.length fs)
  in
  VC.store_verdicts c1 "vc-keep" good;
  (* Fabricate the three kinds of kill -9 wreckage: a torn entry (the
     publication rename happened but the bytes are garbage — simulating
     a torn page), a temp file whose writer pid is long dead, and an
     eviction journal whose deletes never ran. *)
  write (Filename.concat dir (String.make 32 'a' ^ ".vc")) "DAEVC1\ngarbage";
  write (Filename.concat dir ".tmp.999999999.0") "half-written entry";
  write
    (Filename.concat dir "evict.999999999.0.journal")
    (Filename.chop_suffix dead_file ".vc" ^ "\n");
  (* The next generation over the same directory must absorb all of
     it: replay the journal, sweep the orphan, quarantine the torn
     entry — and still serve the intact survivor. *)
  let c2 = VC.create ~disk_dir:dir ~fingerprint:"fp" () in
  Alcotest.(check int) "journal replayed" 1 (VC.journal_replayed c2);
  Alcotest.(check bool)
    "condemned entry deleted" true
    (lookup c2 "vc-dead" = None);
  Alcotest.(check int) "orphan tmp swept" 1 (VC.recovered_tmp c2);
  Alcotest.(check bool)
    "tmp gone" false
    (Sys.file_exists (Filename.concat dir ".tmp.999999999.0"));
  Alcotest.(check int) "torn entry quarantined" 1 (VC.recovered_torn c2);
  Alcotest.(check bool)
    "torn entry preserved for inspection" true
    (Sys.file_exists
       (Filename.concat
          (Filename.concat dir "quarantine")
          (String.make 32 'a' ^ ".vc")));
  Alcotest.(check bool)
    "survivor still served" true
    (lookup c2 "vc-keep" = Some good)

let test_cache_disk_fault_crash_window () =
  (* The [disk] fault site models kill -9 inside the publication
     window: the temp file is written, the rename never happens. *)
  let dir = temp_dir () in
  F.configure ~seed:1 [ (F.Disk, 1.0) ];
  Fun.protect ~finally:F.clear (fun () ->
      let c = VC.create ~disk_dir:dir ~fingerprint:"fp" () in
      VC.store_verdicts c "vc-a" good;
      (* The memory tier still answers this instance... *)
      Alcotest.(check bool) "memory tier intact" true
        (lookup c "vc-a" = Some good));
  let files () = Sys.readdir dir |> Array.to_list in
  Alcotest.(check bool)
    "nothing was published" true
    (not (List.exists (fun f -> Filename.check_suffix f ".vc") (files ())));
  Alcotest.(check bool)
    "tmp litter left behind" true
    (List.exists (fun f -> String.starts_with ~prefix:".tmp." f) (files ()));
  (* While the writer is alive, recovery must NOT sweep its temp file
     (it may be mid-publication right now). *)
  let c_live = VC.create ~disk_dir:dir ~fingerprint:"fp" () in
  Alcotest.(check int) "live writer's tmp respected" 0
    (VC.recovered_tmp c_live);
  (* Once the writer is dead — simulate by renaming to a dead pid —
     the litter is swept and the store is an honest miss. *)
  List.iter
    (fun f ->
      if String.starts_with ~prefix:".tmp." f then
        Sys.rename (Filename.concat dir f) (Filename.concat dir ".tmp.999999999.7"))
    (files ());
  let c2 = VC.create ~disk_dir:dir ~fingerprint:"fp" () in
  Alcotest.(check int) "dead writer's litter swept" 1 (VC.recovered_tmp c2);
  Alcotest.(check bool)
    "the unpublished store is a miss" true
    (lookup c2 "vc-a" = None)

let test_verdict_tier () =
  let c = VC.create () in
  VC.store_verdicts c "prog-1" good;
  (match VC.lookup_verdicts c "prog-1" with
  | Some (v, `Memory) ->
      Alcotest.(check bool) "verdicts round-trip" true (v = good)
  | _ -> Alcotest.fail "verdict lookup");
  (* Abstentions are budget-dependent; they must never be replayed. *)
  VC.store_verdicts c "prog-2"
    { outcomes = [ ("p", V.Timeout "deadline") ]; findings = "" };
  Alcotest.(check bool)
    "abstentions not cached" true
    (VC.lookup_verdicts c "prog-2" = None)

(* ------------------------------------------------------------------ *)
(* End-to-end: a live daemon on a real socket *)

let next_id = ref 0

let fresh_paths () =
  incr next_id;
  let base = Printf.sprintf "dsrv-%d-%d" (Unix.getpid ()) !next_id in
  let dir = Filename.get_temp_dir_name () in
  (Filename.concat dir (base ^ ".sock"), Filename.concat dir (base ^ ".cache"))

let connect path =
  match Server.Client.connect_retry ~attempts:100 ~delay:0.05 path with
  | Ok c -> c
  | Error m -> Alcotest.failf "connect %s: %s" path m

let rpc c req =
  match Server.Client.rpc c req with
  | Ok v -> v
  | Error m -> Alcotest.failf "rpc: %s" m

let get_bool resp k = Option.value ~default:false (J.bool_member k resp)

let get_str resp k =
  match J.str_member k resp with
  | Some s -> s
  | None -> Alcotest.failf "response missing %S: %s" k (J.to_string resp)

(** A stat out of the response's embedded [--json] report document. *)
let report_stat resp k =
  match Option.bind (J.member "report" resp) (J.member "stats") with
  | Some st -> Option.value ~default:(-1) (J.int_member k st)
  | None -> -1

(** Run [f] against a fresh daemon; always joins the daemon domain (so
    no test leaks a listener into the next). [f] may shut the daemon
    down itself — the finalizer's extra shutdown then just fails to
    connect and is ignored. *)
let with_daemon cfg f =
  let dom = Domain.spawn (fun () -> Server.Daemon.run cfg) in
  let finished = ref false in
  Fun.protect
    ~finally:(fun () ->
      (if not !finished then
         (* Retry the connect too: if [f] failed before the daemon
            finished binding, a one-shot connect would miss, skip the
            shutdown, and leave the join below waiting forever. *)
         match
           Server.Client.connect_retry ~attempts:100 ~delay:0.05
             cfg.Server.Daemon.socket_path
         with
         | Ok c ->
             (* Under chaos testing an injected socket fault can garble
                the shutdown request itself (the daemon answers with an
                error and keeps serving), so retry until acknowledged —
                otherwise the join below waits forever. *)
             let rec shut attempts =
               if attempts > 0 then
                 match Server.Client.rpc c (P.shutdown_request ()) with
                 | Ok resp when get_bool resp "ok" -> ()
                 | Ok _ | Error _ -> shut (attempts - 1)
             in
             (try shut 50 with _ -> ());
             Server.Client.close c
         | Error _ -> ());
      match Domain.join dom with
      | Ok () -> ()
      | Error m -> Alcotest.failf "daemon failed: %s" m)
    (fun () ->
      let r = f () in
      finished := false;
      r)

(** Ground truth: the sequential CLI path. *)
let sequential_statuses () =
  let report =
    E.verify_programs
      (List.map (fun (e : Pr.entry) -> (e.name, e.prog)) Pr.all)
  in
  List.map2
    (fun (e : Pr.entry) g ->
      (e.name, R.status_string (R.entry_status ~expect_fail:e.expect_fail g)))
    Pr.all report.E.groups

let test_e2e_concurrent_matches_sequential () =
  let expected = sequential_statuses () in
  let sock, _ = fresh_paths () in
  let cfg =
    { Server.Daemon.default_config with socket_path = sock; workers = 3 }
  in
  with_daemon cfg (fun () ->
      (* Client domains only collect responses: Alcotest's reporter
         (a shared [Format] formatter) is not domain-safe, so every
         check runs on the main domain after the joins. *)
      let run_client () =
        let c = connect sock in
        Fun.protect
          ~finally:(fun () -> Server.Client.close c)
          (fun () ->
            List.map
              (fun (e : Pr.entry) ->
                (e.name, rpc c (P.verify_request (P.Entry e.name))))
              Pr.all)
      in
      let doms = List.init 3 (fun _ -> Domain.spawn run_client) in
      let results = List.map Domain.join doms in
      List.iter
        (fun resps ->
          List.iter
            (fun (name, resp) ->
              Alcotest.(check bool) (name ^ " ok") true (get_bool resp "ok"))
            resps;
          Alcotest.(check (list (pair string string)))
            "concurrent verdicts = sequential verdicts" expected
            (List.map (fun (n, resp) -> (n, get_str resp "status")) resps))
        results)

let test_e2e_warm_cache () =
  let sock, _ = fresh_paths () in
  let cfg = { Server.Daemon.default_config with socket_path = sock } in
  with_daemon cfg (fun () ->
      let c = connect sock in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          let r1 = rpc c (P.verify_request (P.Entry "count")) in
          Alcotest.(check bool) "cold is not cached" false (get_bool r1 "cached");
          let r2 = rpc c (P.verify_request (P.Entry "count")) in
          Alcotest.(check bool) "repeat is cached" true (get_bool r2 "cached");
          Alcotest.(check string)
            "verdict unchanged" (get_str r1 "status") (get_str r2 "status");
          (* The acceptance criterion: no solver work on the warm path. *)
          Alcotest.(check int) "no solver queries" 0 (report_stat r2 "queries");
          Alcotest.(check int) "one cache hit" 1 (report_stat r2 "cache_hits");
          Alcotest.(check int) "no misses" 0 (report_stat r2 "cache_misses")))

let test_e2e_disk_cache_survives_restart () =
  let sock, cache_dir = fresh_paths () in
  let cfg =
    {
      Server.Daemon.default_config with
      socket_path = sock;
      cache_dir = Some cache_dir;
    }
  in
  let expected = sequential_statuses () in
  (* Generation 1: populate the disk tier. Its cold requests must do
     solver work, or generation 2's "no solver work" proves nothing. *)
  with_daemon cfg (fun () ->
      let c = connect sock in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          let cold_queries =
            List.fold_left
              (fun n (e : Pr.entry) ->
                let resp = rpc c (P.verify_request (P.Entry e.name)) in
                n + report_stat resp "queries")
              0 Pr.all
          in
          Alcotest.(check bool)
            (Printf.sprintf "cold requests reach the solver (%d queries)"
               cold_queries)
            true (cold_queries > 0)));
  (* Generation 2: same directory, fresh process-state — every request
     must be answered from disk with zero solver work. *)
  with_daemon cfg (fun () ->
      let c = connect sock in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          List.iter
            (fun (e : Pr.entry) ->
              let resp = rpc c (P.verify_request (P.Entry e.name)) in
              Alcotest.(check bool)
                (e.name ^ " served from cache across restart") true
                (get_bool resp "cached");
              Alcotest.(check int)
                (e.name ^ " no solver work") 0 (report_stat resp "queries");
              Alcotest.(check string)
                (e.name ^ " verdict stable")
                (List.assoc e.name expected)
                (get_str resp "status"))
            Pr.all;
          let stats = rpc c (P.stats_request ()) in
          match Option.bind (J.member "stats" stats) (J.member "cache") with
          | Some cache ->
              let disk_hits =
                Option.value ~default:0 (J.int_member "disk_hits" cache)
              in
              Alcotest.(check bool)
                (Printf.sprintf "disk hits reported (%d)" disk_hits)
                true (disk_hits >= List.length Pr.all)
          | None -> Alcotest.fail "stats response missing cache block"))

let test_e2e_corrupt_disk_entries_reverified () =
  let sock, cache_dir = fresh_paths () in
  let cfg =
    {
      Server.Daemon.default_config with
      socket_path = sock;
      cache_dir = Some cache_dir;
    }
  in
  let expected = sequential_statuses () in
  with_daemon cfg (fun () ->
      let c = connect sock in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          List.iter
            (fun (e : Pr.entry) ->
              ignore (rpc c (P.verify_request (P.Entry e.name))))
            Pr.all));
  (* Flip a byte in the middle of every stored entry. *)
  let files = Sys.readdir cache_dir in
  Alcotest.(check bool) "entries were persisted" true (Array.length files > 0);
  Array.iter
    (fun f ->
      let path = Filename.concat cache_dir f in
      let bytes = Bytes.of_string (read_file path) in
      let i = Bytes.length bytes / 2 in
      Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0x40));
      let oc = open_out_bin path in
      output_bytes oc bytes;
      close_out oc)
    files;
  with_daemon cfg (fun () ->
      let c = connect sock in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          List.iter
            (fun (e : Pr.entry) ->
              let resp = rpc c (P.verify_request (P.Entry e.name)) in
              (* Corruption degrades to a re-verify; it never flips a
                 verdict and is never trusted. *)
              Alcotest.(check bool)
                (e.name ^ " corrupt entry not replayed") false
                (get_bool resp "cached");
              Alcotest.(check string)
                (e.name ^ " verdict correct after corruption")
                (List.assoc e.name expected)
                (get_str resp "status"))
            Pr.all))

let test_e2e_busy_backpressure () =
  let sock, _ = fresh_paths () in
  (* A zero-length queue rejects every submission — deterministic
     backpressure without having to race a saturated worker pool. *)
  let cfg =
    { Server.Daemon.default_config with socket_path = sock; queue_bound = 0 }
  in
  with_daemon cfg (fun () ->
      let c = connect sock in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          let resp = rpc c (P.verify_request (P.Entry "swap")) in
          Alcotest.(check bool) "rejected" false (get_bool resp "ok");
          Alcotest.(check bool) "flagged busy" true (get_bool resp "busy");
          (* Cheap requests bypass the queue and still work. *)
          let stats = rpc c (P.stats_request ()) in
          Alcotest.(check bool) "stats still served" true (get_bool stats "ok")))

let test_e2e_faults_never_flip_verdicts () =
  let expected = sequential_statuses () in
  let sock, cache_dir = fresh_paths () in
  let cfg =
    {
      Server.Daemon.default_config with
      socket_path = sock;
      cache_dir = Some cache_dir;
    }
  in
  F.configure ~seed:11 [ (F.Socket, 0.25); (F.Cache, 0.25) ];
  Fun.protect ~finally:F.clear (fun () ->
      with_daemon cfg (fun () ->
          let c = connect sock in
          Fun.protect
            ~finally:(fun () -> Server.Client.close c)
            (fun () ->
              let rec verify name attempts =
                if attempts = 0 then
                  Alcotest.failf "%s: daemon never recovered" name
                else
                  let resp = rpc c (P.verify_request (P.Entry name)) in
                  if get_bool resp "ok" then resp
                  else begin
                    (* An injected fault degraded this request to an
                       error response; retrying is the contract. *)
                    Alcotest.(check bool)
                      "errors carry a message" true
                      (J.str_member "error" resp <> None);
                    verify name (attempts - 1)
                  end
              in
              for _round = 1 to 3 do
                List.iter
                  (fun (e : Pr.entry) ->
                    let resp = verify e.name 50 in
                    Alcotest.(check string)
                      (e.name ^ " verdict under faults")
                      (List.assoc e.name expected)
                      (get_str resp "status"))
                  Pr.all
              done)))

let test_e2e_shutdown_drains_in_flight () =
  let sock, _ = fresh_paths () in
  let cfg = { Server.Daemon.default_config with socket_path = sock } in
  let dom = Domain.spawn (fun () -> Server.Daemon.run cfg) in
  let c = connect sock in
  (* Pipeline three verifies and a shutdown without reading anything:
     the daemon must answer all three (in order) before the ack. *)
  let names = [ "swap"; "count"; "bad_swap" ] in
  List.iteri
    (fun i n ->
      Server.Client.send c
        (P.verify_request ~id:(J.Num (float_of_int i)) (P.Entry n)))
    names;
  Server.Client.send c (P.shutdown_request ~id:(J.Str "bye") ());
  List.iteri
    (fun i n ->
      match Server.Client.recv c with
      | Error m -> Alcotest.failf "response %d: %s" i m
      | Ok resp ->
          Alcotest.(check bool) (n ^ " answered before ack") true
            (get_bool resp "ok");
          Alcotest.(check int)
            (n ^ " in submission order") i
            (Option.value ~default:(-1) (J.int_member "id" resp)))
    names;
  (match Server.Client.recv c with
  | Ok resp ->
      Alcotest.(check bool) "ack last" true (get_bool resp "shutdown")
  | Error m -> Alcotest.failf "ack: %s" m);
  Server.Client.close c;
  match Domain.join dom with
  | Ok () -> ()
  | Error m -> Alcotest.failf "daemon failed: %s" m

let test_e2e_inline_source () =
  let sock, _ = fresh_paths () in
  let cfg = { Server.Daemon.default_config with socket_path = sock } in
  with_daemon cfg (fun () ->
      let c = connect sock in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          let source = read_file (Filename.concat examples_dir "swap.hl") in
          let target = P.Source { file = "swap.hl"; source } in
          let r1 = rpc c (P.verify_request target) in
          Alcotest.(check string) "inline source verifies" "ok"
            (get_str r1 "status");
          (* Same source again: keyed on content, so it hits. *)
          let r2 = rpc c (P.verify_request target) in
          Alcotest.(check bool) "inline repeat cached" true
            (get_bool r2 "cached");
          (* A front-end error comes back as an error response with the
             rendered message, never a verdict. *)
          let bad =
            P.Source { file = "bad.hl"; source = "procedure oops(" }
          in
          let r3 = rpc c (P.verify_request bad) in
          Alcotest.(check bool) "parse error rejected" false (get_bool r3 "ok")))

let test_e2e_lint () =
  let sock, _ = fresh_paths () in
  let cfg = { Server.Daemon.default_config with socket_path = sock } in
  with_daemon cfg (fun () ->
      let c = connect sock in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          let resp = rpc c (P.lint_request (P.Entry "swap")) in
          Alcotest.(check bool) "lint ok" true (get_bool resp "ok");
          Alcotest.(check int) "clean program" 0
            (Option.value ~default:(-1) (J.int_member "errors" resp));
          let source = read_file (Filename.concat examples_dir "broken.hl") in
          let resp =
            rpc c (P.lint_request (P.Source { file = "broken.hl"; source }))
          in
          Alcotest.(check bool) "lint of broken source ok" true
            (get_bool resp "ok");
          Alcotest.(check bool) "errors found" true
            (Option.value ~default:0 (J.int_member "errors" resp) > 0)))

(* ------------------------------------------------------------------ *)
(* Supervision: crash isolation, circuit breaking, watchdog
   preemption, overload shedding, slow clients, resilient clients,
   signals *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  go 0

(** Pull an int counter out of a nested stats response, e.g.
    [stat st [ "stats"; "supervisor" ] "crashes"]. *)
let stat resp path key =
  match
    List.fold_left (fun v k -> Option.bind v (J.member k)) (Some resp) path
  with
  | Some o -> Option.value ~default:(-1) (J.int_member key o)
  | None -> -1

(** The keys the report's [stats] object and the [stats] op carried
    before every counter was derived from a field list, by path. Keys
    may be added, never moved or dropped: clients and dev/check.sh read
    these. *)
let legacy_report_keys =
  [ "jobs"; "wall_ms"; "queries"; "cache_hits"; "cache_disk_hits";
    "cache_misses"; "timeouts"; "resource_outs"; "crashes"; "retries";
    "session_fallbacks"; "par_branches"; "inv_opens"; "interference_havocs" ]

let legacy_stats_op_keys =
  [
    ( [],
      [ "uptime_ms"; "workers"; "pending"; "submitted"; "rejected";
        "completed"; "task_failures"; "parse_errors"; "socket_faults";
        "slow_consumers"; "absint_discharged"; "absint_abstained";
        "par_branches"; "inv_opens"; "interference_havocs"; "supervisor";
        "solver"; "cache" ] );
    ( [ "supervisor" ],
      [ "worker_crashes"; "worker_crash_counts"; "respawns"; "abandoned";
        "crashes"; "preempted"; "stalls"; "breaker_trips"; "breaker_rejects";
        "breaker_open"; "shed"; "degraded_served"; "watchdog" ] );
    ([ "supervisor"; "watchdog" ], [ "active"; "watched"; "cancels"; "abandons" ]);
    ( [ "solver" ],
      [ "term_pool_size"; "term_pool_hits"; "term_pool_misses";
        "term_pool_hit_rate" ] );
    ( [ "cache" ],
      [ "mem_hits"; "disk_hits"; "misses"; "corrupt"; "mem_entries";
        "disk_entries"; "disk_bytes"; "recovered_tmp"; "recovered_torn";
        "journal_replayed"; "fingerprint" ] );
  ]

let keys_at resp path =
  match
    List.fold_left (fun v k -> Option.bind v (J.member k)) (Some resp) path
  with
  | Some (J.Obj fields) -> List.map fst fields
  | _ -> []

let check_keys what ~present expected =
  List.iter
    (fun k ->
      Alcotest.(check bool) (Printf.sprintf "%s has %S" what k) true
        (List.mem k present))
    expected

let counter_names fields = List.map Stdx.Counters.name fields

let test_e2e_stats_keys_preserved () =
  let sock, cache_dir = fresh_paths () in
  let cfg =
    {
      Server.Daemon.default_config with
      socket_path = sock;
      cache_dir = Some cache_dir;
    }
  in
  with_daemon cfg (fun () ->
      let c = connect sock in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          let r = rpc c (P.verify_request (P.Entry "count")) in
          Alcotest.(check bool) "cold" false (get_bool r "cached");
          let report = keys_at r [ "report"; "stats" ] in
          check_keys "report.stats" ~present:report legacy_report_keys;
          check_keys "report.stats" ~present:report
            (counter_names Smt.Stats.fields
            @ counter_names Verifier.Vstats.fields);
          let st = rpc c (P.stats_request ()) in
          List.iter
            (fun (path, keys) ->
              check_keys
                (String.concat "." ("stats" :: path))
                ~present:(keys_at st ("stats" :: path))
                keys)
            legacy_stats_op_keys;
          check_keys "stats" ~present:(keys_at st [ "stats" ])
            (counter_names Verifier.Vstats.fields);
          check_keys "stats.supervisor.watchdog"
            ~present:(keys_at st [ "stats"; "supervisor"; "watchdog" ])
            [ "errors" ]))

(* A program without procedures has nothing to verify: the daemon
   answers a vacuous VERIFIED with no procedure outcomes, and no worker
   dies on it (it used to, and client retries then tripped the
   breaker). *)
let test_e2e_zero_procedures () =
  let sock, _ = fresh_paths () in
  let cfg = { Server.Daemon.default_config with socket_path = sock } in
  with_daemon cfg (fun () ->
      let c = connect sock in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          List.iter
            (fun (file, source, lint) ->
              let what = Printf.sprintf "%s (lint %b)" file lint in
              let r = rpc c (P.verify_request ~lint (P.Source { file; source })) in
              Alcotest.(check bool) (what ^ " ok") true (get_bool r "ok");
              Alcotest.(check string) (what ^ " vacuously verified") "ok"
                (get_str r "status");
              match Option.bind (J.member "report" r) (J.member "entries") with
              | Some (J.List [ e ]) ->
                  Alcotest.(check bool) (what ^ " has no procedures") true
                    (J.member "procs" e = Some (J.List []))
              | _ -> Alcotest.failf "%s: expected one report entry" what)
            [
              ("empty.hl", "", false);
              ("empty.hl", "", true);
              ( "inv_only.hl",
                "invariant lock { (lck |-> 0 * (exists v. x |-> v)) || lck |-> 1 }\n",
                false );
            ];
          let st = rpc c (P.stats_request ()) in
          let sup k = stat st [ "stats"; "supervisor" ] k in
          Alcotest.(check int) "no supervised crash" 0 (sup "crashes");
          Alcotest.(check int) "no worker crash" 0 (sup "worker_crashes")))

(* The verdict cache keys an inline program on its file name as well
   as its text: lint findings and located failures name the file, so
   one source sent under two names must never reply with the other
   name — cold or cached, lint on or off. *)
let test_e2e_file_names_not_shared () =
  let sock, _ = fresh_paths () in
  let cfg = { Server.Daemon.default_config with socket_path = sock } in
  let source = read_file (Filename.concat examples_dir "da018_div_zero.hl") in
  with_daemon cfg (fun () ->
      let c = connect sock in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          List.iter
            (fun lint ->
              List.iter
                (fun (file, other, cached) ->
                  let what =
                    Printf.sprintf "%s (lint %b, cached %b)" file lint cached
                  in
                  let r =
                    rpc c (P.verify_request ~lint (P.Source { file; source }))
                  in
                  Alcotest.(check bool) (what ^ " ok") true (get_bool r "ok");
                  Alcotest.(check bool) (what ^ " cached") cached
                    (get_bool r "cached");
                  Alcotest.(check bool) (what ^ " names its file") true
                    (contains (get_str r "output") file);
                  Alcotest.(check bool)
                    (what ^ " never names " ^ other)
                    false
                    (contains (J.to_string r) other))
                [
                  ("a/w.hl", "b/w.hl", false);
                  ("b/w.hl", "a/w.hl", false);
                  ("a/w.hl", "b/w.hl", true);
                  ("b/w.hl", "a/w.hl", true);
                ])
            [ true; false ]))

(* A hit is answered from its cache entry alone. Plant an entry for a
   source the parser rejects: the daemon replays it, which it could not
   if anything of the front end ran first. *)
let test_e2e_hit_skips_front_end () =
  let sock, cache_dir = fresh_paths () in
  let source = "procedure oops(" in
  let target = P.Source { file = "ghost.hl"; source } in
  VC.store_verdicts
    (VC.create ~disk_dir:cache_dir ~fingerprint:"fp" ())
    (Server.Daemon.verdict_key E.Options.default target)
    { outcomes = [ ("oops", V.Verified) ]; findings = "planted findings\n" };
  let cfg =
    {
      Server.Daemon.default_config with
      socket_path = sock;
      cache_dir = Some cache_dir;
      cache_fingerprint = Some "fp";
    }
  in
  with_daemon cfg (fun () ->
      let c = connect sock in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          let r = rpc c (P.verify_request target) in
          Alcotest.(check bool) "planted entry served" true (get_bool r "ok");
          Alcotest.(check bool) "from the cache" true (get_bool r "cached");
          Alcotest.(check string) "its verdict" "ok" (get_str r "status");
          Alcotest.(check bool) "its findings text" true
            (String.starts_with ~prefix:"planted findings\n  proc oops"
               (get_str r "output"));
          (* Under another name it is a miss: the parser runs and
             rejects it. *)
          let miss =
            rpc c (P.verify_request (P.Source { file = "ghost2.hl"; source }))
          in
          Alcotest.(check bool) "a miss reaches the parser" false
            (get_bool miss "ok")))

(** [s] without the timing column a report line ends in (["   12.3ms"],
    its padding included); every other line is kept as is. *)
let strip_ms s =
  let strip line =
    let n = String.length line in
    let rec back ok i =
      if i > 0 && ok line.[i - 1] then back ok (i - 1) else i
    in
    let digits = back (function '0' .. '9' | '.' -> true | _ -> false) in
    if String.ends_with ~suffix:"ms" line then
      let i = digits (n - 2) in
      let j = back (( = ) ' ') i in
      if i < n - 2 && j < i then String.sub line 0 j else line
    else line
  in
  String.concat "\n" (List.map strip (String.split_on_char '\n' s))

(** What a warm reply must share with the cold one: every top-level
    field but [cached] and [report], [output] up to the ms column, and
    each report entry but its [ms]. *)
let replay_view resp =
  let fields = match resp with J.Obj fs -> fs | _ -> [] in
  let entries =
    match Option.bind (J.member "report" resp) (J.member "entries") with
    | Some (J.List es) ->
        List.map
          (function
            | J.Obj fs -> J.Obj (List.remove_assoc "ms" fs) | e -> e)
          es
    | _ -> []
  in
  J.to_string
    (J.Obj
       (List.filter
          (fun (k, _) -> not (List.mem k [ "cached"; "report"; "output" ]))
          fields
       @ [
           ("output", J.Str (strip_ms (get_str resp "output")));
           ("entries", J.List entries);
         ]))

(* Every example, inline, lint on and off: the cold reply, the memory
   hit and — after a restart — the disk hit are the same reply, apart
   from [cached], timings and the report's counters. *)
let test_e2e_replay_equivalence () =
  let sock, cache_dir = fresh_paths () in
  let cfg =
    {
      Server.Daemon.default_config with
      socket_path = sock;
      cache_dir = Some cache_dir;
    }
  in
  let files =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".hl")
    |> List.sort compare
  in
  let requests =
    List.concat_map
      (fun f ->
        let source = read_file (Filename.concat examples_dir f) in
        List.map
          (fun lint ->
            ( Printf.sprintf "%s (lint %b)" f lint,
              P.verify_request ~lint (P.Source { file = f; source }) ))
          [ true; false ])
      files
  in
  let send_all () =
    let c = connect sock in
    Fun.protect
      ~finally:(fun () -> Server.Client.close c)
      (fun () -> List.map (fun (what, req) -> (what, rpc c req)) requests)
  in
  let cold, mem =
    with_daemon cfg (fun () ->
        let cold = send_all () in
        (cold, send_all ()))
  in
  let disk = with_daemon cfg send_all in
  Alcotest.(check bool) "every example sent" true (List.length files >= 20);
  List.iter2
    (fun (what, c) ((_, m), (_, d)) ->
      Alcotest.(check bool) (what ^ " cold") false (get_bool c "cached");
      Alcotest.(check bool) (what ^ " memory hit") true (get_bool m "cached");
      Alcotest.(check int) (what ^ " memory tier") 1
        (report_stat m "cache_hits");
      Alcotest.(check bool) (what ^ " disk hit") true (get_bool d "cached");
      Alcotest.(check int) (what ^ " disk tier") 1
        (report_stat d "cache_disk_hits");
      Alcotest.(check string) (what ^ ": memory hit = cold") (replay_view c)
        (replay_view m);
      Alcotest.(check string) (what ^ ": disk hit = cold") (replay_view c)
        (replay_view d))
    cold (List.combine mem disk)

let test_e2e_worker_crashes_isolated_and_breaker () =
  let sock, _ = fresh_paths () in
  let cfg =
    {
      Server.Daemon.default_config with
      socket_path = sock;
      breaker_threshold = 2;
      breaker_cooldown_ms = 400.0;
      recycle_after = 1;
    }
  in
  F.configure ~seed:3 [ (F.Worker, 1.0) ];
  Fun.protect ~finally:F.clear (fun () ->
      with_daemon cfg (fun () ->
          let c = connect sock in
          Fun.protect
            ~finally:(fun () -> Server.Client.close c)
            (fun () ->
              (* A crash escaping the whole handler fails only its own
                 request, as a structured retryable error. *)
              let r1 = rpc c (P.verify_request (P.Entry "swap")) in
              Alcotest.(check bool) "crash is an error response" false
                (get_bool r1 "ok");
              Alcotest.(check bool) "crash is retryable" true
                (get_bool r1 "retryable");
              Alcotest.(check bool) "crash is named" true
                (contains (get_str r1 "error") "worker crashed");
              let r2 = rpc c (P.verify_request (P.Entry "swap")) in
              Alcotest.(check bool) "second crash isolated too" false
                (get_bool r2 "ok");
              (* Two consecutive crashes of the same digest: the
                 breaker opens — the third submission is rejected
                 without being fed to a worker. *)
              let r3 = rpc c (P.verify_request (P.Entry "swap")) in
              Alcotest.(check bool) "quarantined" true
                (contains (get_str r3 "error") "quarantined");
              Alcotest.(check bool) "quarantine carries retry-after" true
                (J.num_member "retry_after_ms" r3 <> None);
              (* A different digest is its own circuit: admitted (and
                 crashing on its own count). *)
              let r4 = rpc c (P.verify_request (P.Entry "count")) in
              Alcotest.(check bool) "other digest admitted" true
                (contains (get_str r4 "error") "worker crashed");
              (* Crashes stop; the cooldown elapses; the half-open
                 probe closes the circuit with a correct verdict. *)
              F.clear ();
              Unix.sleepf 0.45;
              let r5 = rpc c (P.verify_request (P.Entry "swap")) in
              Alcotest.(check bool) "half-open probe succeeds" true
                (get_bool r5 "ok");
              Alcotest.(check string) "verdict intact after crashes" "ok"
                (get_str r5 "status");
              (* The repair left its audit trail. *)
              let st = rpc c (P.stats_request ()) in
              let sup k = stat st [ "stats"; "supervisor" ] k in
              Alcotest.(check bool) "crashes counted" true (sup "crashes" >= 3);
              Alcotest.(check bool) "breaker tripped" true
                (sup "breaker_trips" >= 1);
              Alcotest.(check bool) "breaker rejected" true
                (sup "breaker_rejects" >= 1);
              Alcotest.(check bool)
                "crashed workers were recycled (recycle_after = 1)" true
                (sup "respawns" >= 1))))

let test_e2e_watchdog_preempts_stall () =
  let sock, _ = fresh_paths () in
  let cfg =
    {
      Server.Daemon.default_config with
      socket_path = sock;
      watchdog_ms = Some 60.0;
      watchdog_grace = 1.0;
    }
  in
  (* A stall is a worker that stops polling its budget entirely: only
     the watchdog's hard stage gets the domain's slot back. *)
  F.configure ~seed:5 [ (F.Stall, 1.0) ];
  Fun.protect ~finally:F.clear (fun () ->
      with_daemon cfg (fun () ->
          let c = connect sock in
          Fun.protect
            ~finally:(fun () -> Server.Client.close c)
            (fun () ->
              let r1 = rpc c (P.verify_request (P.Entry "swap")) in
              Alcotest.(check bool) "stalled request answered" false
                (get_bool r1 "ok");
              Alcotest.(check bool) "preemption is retryable" true
                (get_bool r1 "retryable");
              Alcotest.(check bool) "preemption is named" true
                (contains (get_str r1 "error") "preempted");
              (* The wedged domain was written off and replaced: the
                 daemon keeps serving, with correct verdicts. *)
              F.clear ();
              let r2 = rpc c (P.verify_request (P.Entry "swap")) in
              Alcotest.(check bool) "respawned worker serves" true
                (get_bool r2 "ok");
              Alcotest.(check string) "verdict intact after stall" "ok"
                (get_str r2 "status");
              let st = rpc c (P.stats_request ()) in
              let sup k = stat st [ "stats"; "supervisor" ] k in
              Alcotest.(check bool) "stall injected" true (sup "stalls" >= 1);
              Alcotest.(check bool) "preemption counted" true
                (sup "preempted" >= 1);
              Alcotest.(check bool) "incarnation abandoned" true
                (sup "abandoned" >= 1);
              Alcotest.(check bool) "slot respawned" true
                (sup "respawns" >= 1);
              Alcotest.(check bool) "watchdog abandon stage fired" true
                (stat st [ "stats"; "supervisor"; "watchdog" ] "abandons"
                >= 1))))

let test_e2e_overload_sheds_and_degrades () =
  let sock, _ = fresh_paths () in
  let cfg =
    {
      Server.Daemon.default_config with
      socket_path = sock;
      workers = 1;
      max_inflight = 1;
      watchdog_ms = Some 800.0;
      watchdog_grace = 1.0;
    }
  in
  with_daemon cfg (fun () ->
      let c1 = connect sock and c2 = connect sock in
      Fun.protect
        ~finally:(fun () ->
          Server.Client.close c1;
          Server.Client.close c2)
        (fun () ->
          (* Warm the verdict cache while capacity is free. *)
          let warm = rpc c2 (P.verify_request (P.Entry "swap")) in
          Alcotest.(check bool) "warm-up ok" true (get_bool warm "ok");
          (* The warm-up's in-flight slot is released just after its
             reply is written; under load the stall request below could
             otherwise arrive first and be shed instead of admitted. *)
          let rec until_idle n =
            let st = rpc c2 (P.stats_request ()) in
            if n > 0 && stat st [ "stats" ] "pending" <> 0 then begin
              Unix.sleepf 0.01;
              until_idle (n - 1)
            end
          in
          until_idle 500;
          (* Wedge the only worker on a stalled cold request; the
             watchdog will answer it in ~1.6s, which is our window. *)
          F.configure ~seed:7 [ (F.Stall, 1.0) ];
          Server.Client.send c1
            (P.verify_request ~id:(J.Num 1.0) (P.Entry "count"));
          let rec wait_stall n =
            if n = 0 then Alcotest.fail "stall never engaged"
            else
              let st = rpc c2 (P.stats_request ()) in
              if stat st [ "stats"; "supervisor" ] "stalls" < 1 then begin
                Unix.sleepf 0.01;
                wait_stall (n - 1)
              end
          in
          wait_stall 500;
          F.clear ();
          (* The global in-flight budget (1) is consumed: new solve
             work is shed with backpressure metadata... *)
          let shed = rpc c2 (P.verify_request (P.Entry "bad_swap")) in
          Alcotest.(check bool) "cold verify shed" true (get_bool shed "busy");
          Alcotest.(check bool) "shed carries retry-after" true
            (J.num_member "retry_after_ms" shed <> None);
          (* ...but requests that need no solver are still served
             inline: lint, and verify hits in the verdict cache. *)
          let l = rpc c2 (P.lint_request (P.Entry "swap")) in
          Alcotest.(check bool) "lint served under overload" true
            (get_bool l "ok");
          let mem_hits () =
            stat (rpc c2 (P.stats_request ())) [ "stats"; "cache" ] "mem_hits"
          in
          let hits0 = mem_hits () in
          let hit = rpc c2 (P.verify_request (P.Entry "swap")) in
          Alcotest.(check bool) "verdict-cache hit served under overload"
            true (get_bool hit "ok");
          Alcotest.(check bool) "served from cache" true
            (get_bool hit "cached");
          (* One probe answers a degraded hit: it counts once. *)
          Alcotest.(check int) "degraded hit counted once" (hits0 + 1)
            (mem_hits ());
          (* The watchdog reclaims the wedged worker and answers c1. *)
          (match Server.Client.recv c1 with
          | Ok r ->
              Alcotest.(check bool) "stalled request preempted" true
                (contains (get_str r "error") "preempted")
          | Error m -> Alcotest.failf "stalled request: %s" m);
          (* Capacity restored: the shed request now runs. The slot is
             released when the abandoned incarnation actually unwinds,
             which can trail the preempt reply — so retry briefly. *)
          let rec until_ok n =
            let r = rpc c2 (P.verify_request (P.Entry "bad_swap")) in
            if get_bool r "ok" || n = 0 then r
            else begin
              Unix.sleepf 0.02;
              until_ok (n - 1)
            end
          in
          let r = until_ok 250 in
          Alcotest.(check bool) "capacity restored" true (get_bool r "ok");
          let st = rpc c2 (P.stats_request ()) in
          Alcotest.(check bool) "shed counted" true
            (stat st [ "stats"; "supervisor" ] "shed" >= 1);
          Alcotest.(check bool) "degraded service counted" true
            (stat st [ "stats"; "supervisor" ] "degraded_served" >= 2)))

let test_e2e_slowloris () =
  let sock, _ = fresh_paths () in
  let cfg =
    { Server.Daemon.default_config with socket_path = sock; workers = 1 }
  in
  with_daemon cfg (fun () ->
      (* The retrying connect doubles as "wait until the daemon is
         up": the raw socket below must not race the bind. *)
      let c = connect sock in
      (* A peer that dribbles its request a few bytes at a time — with
         long mid-line stalls — must not block anyone else. *)
      let slow = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          Server.Client.close c;
          try Unix.close slow with _ -> ())
        (fun () ->
          Unix.connect slow (Unix.ADDR_UNIX sock);
          let line =
            Server.Protocol.line
              (P.verify_request ~id:(J.Num 9.0) (P.Entry "swap"))
          in
          let half = String.length line / 2 in
          ignore (Unix.write_substring slow line 0 half);
          (* Mid-line stall in progress; a well-behaved client on
             another connection is served normally. *)
          let r = rpc c (P.verify_request (P.Entry "swap")) in
          Alcotest.(check bool)
            "fast client served while slow one dribbles" true
            (get_bool r "ok");
          (* Now finish the request one byte at a time; the buffered
             halves must reassemble into a served request. *)
          String.iter
            (fun ch -> ignore (Unix.write_substring slow (String.make 1 ch) 0 1))
            (String.sub line half (String.length line - half));
          let buf = Buffer.create 256 in
          let byte = Bytes.create 1 in
          let rec read_line () =
            match Unix.read slow byte 0 1 with
            | 0 -> Alcotest.fail "daemon closed on the slow client"
            | _ ->
                if Bytes.get byte 0 = '\n' then Buffer.contents buf
                else begin
                  Buffer.add_char buf (Bytes.get byte 0);
                  read_line ()
                end
          in
          match J.parse (read_line ()) with
          | Error m -> Alcotest.failf "slow client response: %s" m
          | Ok resp ->
              Alcotest.(check bool) "slow client's request served" true
                (get_bool resp "ok");
              Alcotest.(check int) "response correlated" 9
                (Option.value ~default:(-1) (J.int_member "id" resp))))

let test_e2e_client_session_retry () =
  (* Honest exit taxonomy: a dead daemon is [Unavailable] (gave up),
     never a judgement about the program. *)
  let dead_sock, _ = fresh_paths () in
  let quick =
    {
      Server.Client.attempts = 3;
      base_delay_ms = 1.0;
      max_delay_ms = 5.0;
    }
  in
  (match
     Server.Client.request
       (Server.Client.open_session ~retry:quick dead_sock)
       (P.stats_request ())
   with
  | Error (Server.Client.Unavailable _) -> ()
  | Ok _ -> Alcotest.fail "dead daemon must not answer"
  | Error (Server.Client.Fatal m) ->
      Alcotest.failf "dead daemon is not a judgement: %s" m);
  (* Under heavy socket faults, a retrying session converges to the
     fault-free verdicts — degradation costs retries, never truth. *)
  let expected = sequential_statuses () in
  let sock, _ = fresh_paths () in
  let cfg = { Server.Daemon.default_config with socket_path = sock } in
  F.configure ~seed:9 [ (F.Socket, 0.5) ];
  Fun.protect ~finally:F.clear (fun () ->
      with_daemon cfg (fun () ->
          let s =
            Server.Client.open_session
              ~retry:
                {
                  Server.Client.attempts = 50;
                  base_delay_ms = 1.0;
                  max_delay_ms = 10.0;
                }
              sock
          in
          Fun.protect
            ~finally:(fun () -> Server.Client.close_session s)
            (fun () ->
              List.iter
                (fun (e : Pr.entry) ->
                  match
                    Server.Client.request s (P.verify_request (P.Entry e.name))
                  with
                  | Ok resp ->
                      Alcotest.(check string)
                        (e.name ^ " verdict through retries")
                        (List.assoc e.name expected)
                        (get_str resp "status")
                  | Error (Server.Client.Fatal m)
                  | Error (Server.Client.Unavailable m) ->
                      Alcotest.failf "%s: session never converged: %s" e.name
                        m)
                (match Pr.all with a :: b :: c :: _ -> [ a; b; c ] | l -> l);
              (* A judgement is not retried into oblivion: unknown
                 entries come back [Fatal] once a request gets through. *)
              match
                Server.Client.request s (P.verify_request (P.Entry "nope"))
              with
              | Error (Server.Client.Fatal m) ->
                  Alcotest.(check bool) "named" true (contains m "unknown")
              | Ok _ -> Alcotest.fail "unknown entry must fail"
              | Error (Server.Client.Unavailable m) ->
                  Alcotest.failf "judgement misreported as outage: %s" m)))

let test_e2e_signals () =
  let sock, _ = fresh_paths () in
  let cfg = { Server.Daemon.default_config with socket_path = sock } in
  let dom = Domain.spawn (fun () -> Server.Daemon.run cfg) in
  let c = connect sock in
  (* A served request proves the loop is up (and so the handlers are
     installed — they are set before the loop starts). *)
  let r0 = rpc c (P.verify_request (P.Entry "swap")) in
  Alcotest.(check bool) "daemon up" true (get_bool r0 "ok");
  (* SIGHUP: a stats snapshot on stderr, no service interruption. *)
  Unix.kill (Unix.getpid ()) Sys.sighup;
  Unix.sleepf 0.1;
  let r1 = rpc c (P.verify_request (P.Entry "count")) in
  Alcotest.(check bool) "still serving after SIGHUP" true (get_bool r1 "ok");
  (* SIGTERM: graceful drain — the daemon exits cleanly with no
     shutdown request, removing its socket. *)
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  (match Domain.join dom with
  | Ok () -> ()
  | Error m -> Alcotest.failf "drain failed: %s" m);
  Alcotest.(check bool) "socket removed" false (Sys.file_exists sock);
  Server.Client.close c

let () =
  Alcotest.run "server"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "unicode" `Quick test_json_unicode;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "roundtrip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "errors" `Quick test_protocol_errors;
          qcheck_options_distinct;
          qcheck_targets_distinct;
          qcheck_options_roundtrip;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "fifo+fair" `Quick test_scheduler_fifo_fair;
          Alcotest.test_case "backpressure" `Quick test_scheduler_backpressure;
          Alcotest.test_case "drain" `Quick test_scheduler_drain;
        ] );
      ( "cache",
        [
          Alcotest.test_case "disk tier" `Quick test_cache_disk_tier;
          Alcotest.test_case "corrupt evicted" `Quick
            test_cache_corrupt_disk_evicted;
          Alcotest.test_case "fingerprint" `Quick
            test_cache_fingerprint_isolation;
          Alcotest.test_case "lru bound" `Quick test_cache_lru_bound;
          Alcotest.test_case "crash recovery" `Quick test_cache_crash_recovery;
          Alcotest.test_case "disk fault crash window" `Quick
            test_cache_disk_fault_crash_window;
          Alcotest.test_case "verdict tier" `Quick test_verdict_tier;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "concurrent = sequential" `Quick
            test_e2e_concurrent_matches_sequential;
          Alcotest.test_case "warm cache" `Quick test_e2e_warm_cache;
          Alcotest.test_case "disk cache survives restart" `Quick
            test_e2e_disk_cache_survives_restart;
          Alcotest.test_case "corrupt entries re-verified" `Quick
            test_e2e_corrupt_disk_entries_reverified;
          Alcotest.test_case "busy backpressure" `Quick
            test_e2e_busy_backpressure;
          Alcotest.test_case "faults never flip verdicts" `Quick
            test_e2e_faults_never_flip_verdicts;
          Alcotest.test_case "shutdown drains" `Quick
            test_e2e_shutdown_drains_in_flight;
          Alcotest.test_case "inline source" `Quick test_e2e_inline_source;
          Alcotest.test_case "lint" `Quick test_e2e_lint;
          Alcotest.test_case "stats keys preserved" `Quick
            test_e2e_stats_keys_preserved;
          Alcotest.test_case "zero procedures" `Quick test_e2e_zero_procedures;
          Alcotest.test_case "file names not shared" `Quick
            test_e2e_file_names_not_shared;
          Alcotest.test_case "hit skips the front end" `Quick
            test_e2e_hit_skips_front_end;
          Alcotest.test_case "replay equivalence" `Quick
            test_e2e_replay_equivalence;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "worker crashes isolated + breaker" `Quick
            test_e2e_worker_crashes_isolated_and_breaker;
          Alcotest.test_case "watchdog preempts stall" `Quick
            test_e2e_watchdog_preempts_stall;
          Alcotest.test_case "overload sheds + degrades" `Quick
            test_e2e_overload_sheds_and_degrades;
          Alcotest.test_case "slowloris" `Quick test_e2e_slowloris;
          Alcotest.test_case "client session retry" `Quick
            test_e2e_client_session_retry;
          Alcotest.test_case "signals" `Quick test_e2e_signals;
        ] );
    ]
