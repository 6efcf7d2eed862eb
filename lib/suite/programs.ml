(** The benchmark suite: annotated programs exercising the verifier
    (and, where marked, the certified baseline).

    Every entry the surface language can express is its [.hl] source,
    elaborated by {!Verifier.Elab.program_of_string} exactly as
    [daenerys verify] and the daemon elaborate a file. {!sources} names
    each one by its path from the repository root: the 14 programs
    that also ship as [examples/*.hl] use those files, and the others,
    with the stable variants of [count] and [bank], live in
    [lib/suite/programs/]. The dune rule that builds [Sources] embeds
    the bytes at build time, so nothing reads a file at run time.

    Only [ghost_counter] and [monotone] are built here as OCaml ASTs:
    they hold ghost resources ([A.Ghost]) and update them with ghost
    commands ([V.Update]), and the surface language has neither an
    [own] assertion nor a ghost-update command.

    Conventions: specification parameters appear as [Sym] values in
    programs and as term variables in assertions, with the same name;
    procedure results bind the reserved variable [result] in
    postconditions. *)

module A = Baselogic.Assertion
module GV = Baselogic.Ghost_val
module T = Smt.Term
module HL = Heaplang.Ast
module V = Verifier.Exec
module P = Proofmode.Prove

(** A baseline (proof-producing) verification task. *)
type baseline = {
  b_pre : A.t;
  b_body : HL.expr;
  b_post : A.t;  (** binds [result] *)
  b_invs : (HL.expr * P.loop_annot) list;
}

type entry = {
  name : string;
  descr : string;
  prog : V.program;
  main : string;
  baseline : baseline option;
  stable_variant : V.program option;
      (** same program, specs without heap-dependent assertions (A1) *)
  expect_fail : bool;  (** negative test: must NOT verify *)
}

(** The source of every elaborated program, by key: an entry's name
    for its [prog], the entry's name with [_stable] appended for its
    stable variant. *)
let sources =
  [
    ("swap", "examples/swap.hl");
    ("swap_client", "examples/swap_client.hl");
    ("count", "examples/count.hl");
    ("count_stable", "lib/suite/programs/count_stable.hl");
    ("max3", "examples/max3.hl");
    ("clamp", "examples/clamp.hl");
    ("bank", "examples/bank.hl");
    ("bank_stable", "lib/suite/programs/bank_stable.hl");
    ("list_length", "examples/list_length.hl");
    ("cas_once", "lib/suite/programs/cas_once.hl");
    ("faa_counter", "lib/suite/programs/faa_counter.hl");
    ("times7", "lib/suite/programs/times7.hl");
    ("cas_retry", "lib/suite/programs/cas_retry.hl");
    ("lifecycle", "lib/suite/programs/lifecycle.hl");
    ("shared_read", "examples/shared_read.hl");
    ("spinlock", "examples/spinlock.hl");
    ("ticket_lock", "examples/ticket_lock.hl");
    ("treiber", "examples/treiber.hl");
    ("bad_swap", "examples/bad_swap.hl");
    ("bad_leak", "lib/suite/programs/bad_leak.hl");
    ("bad_unstable", "lib/suite/programs/bad_unstable.hl");
    ("bad_double_free", "lib/suite/programs/bad_double_free.hl");
    ("bad_half_write", "lib/suite/programs/bad_half_write.hl");
    ("racy_incr", "examples/da027_racy_par.hl");
    ("lock_noinv", "examples/lock_noinv.hl");
  ]

let load key =
  let file = List.assoc key sources in
  fst
    (Verifier.Elab.program_of_string ~file
       (List.assoc (Filename.basename file) Sources.files))

let entry ?baseline ?stable_variant ?(expect_fail = false) ~descr name prog
    main =
  { name; descr; prog; main; baseline; stable_variant; expect_fail }

(** The procedure an entry's [main] names. *)
let main_proc e =
  List.find (fun p -> String.equal p.V.pname e.main) e.prog.V.procs

(** A baseline task restating an entry's main procedure; [anf] proves
    the A-normal form of its body. *)
let restate ?(anf = false) ?(invs = []) (p : V.proc) =
  {
    b_pre = p.V.requires;
    b_body = (if anf then P.anf p.V.body else p.V.body);
    b_post = p.V.ensures;
    b_invs = invs;
  }

(** An entry elaborated from [sources]; [baseline] builds its baseline
    task from the main procedure. *)
let hl ?baseline ?stable_variant ?expect_fail ~descr name main =
  let e = entry ?stable_variant ?expect_fail ~descr name (load name) main in
  { e with baseline = Option.map (fun f -> f (main_proc e)) baseline }

let swap = hl ~descr:"swap two references" ~baseline:restate "swap" "swap"

let swap_client =
  hl ~descr:"modular verification through swap's spec" "swap_client"
    "swap_client"

(* The baseline proves [count] against the stable invariant, keyed on
   the loaded loop and guarded by the heap-dependent loop test. *)
let count =
  let stable = load "count_stable" in
  let e =
    hl ~descr:"count a cell up to n (loop invariant reads the heap)"
      ~stable_variant:stable "count" "count"
  in
  let p = main_proc e in
  let loop = fst (List.hd p.V.invariants) in
  let inv = snd (List.hd (List.hd stable.V.procs).V.invariants) in
  let guard = Some (T.lt (Baselogic.Hterm.deref (T.var "i")) (T.var "n")) in
  { e with baseline = Some (restate ~invs:[ (loop, { P.inv; guard }) ] p) }

let max3 =
  hl ~descr:"maximum of three, branch coverage"
    ~baseline:(restate ~anf:true) "max3" "max3"

let clamp =
  hl ~descr:"clamp with a runtime assert" ~baseline:(restate ~anf:true)
    "clamp" "clamp"

let bank =
  hl ~descr:"bank transfer preserving a heap-dependent sum invariant"
    ~stable_variant:(load "bank_stable") "bank" "transfer"

(* [bank_proc], [length_proc] and [clist_preds] are read by the OCaml
   programs in [examples/] and by the tests. *)
let bank_proc = main_proc bank

(* ------------------------------------------------------------------ *)
(* The ghost-state entries, built as OCaml ASTs. *)

let pt l v = A.points_to (T.var l) v
let auth n = GV.Auth_nat { auth = Some n; frag = n }
let v0 = T.var "v0"
let v0_plus k = T.add v0 (T.int k)

(* Increments the cell and bumps an authoritative nat ghost counter in
   step; the ghost update names the old value through the parameter
   [v0]. *)
let ghost_counter =
  let gamma = "γc" in
  entry ~descr:"physical increment with an authoritative ghost counter"
    "ghost_counter"
    {
      V.procs =
        [
          {
            V.pname = "ghost_incr";
            params = [ "l"; "v0" ];
            requires =
              A.seps
                [
                  pt "l" v0;
                  A.Ghost (gamma, auth v0);
                  A.Pure (T.le (T.int 0) v0);
                ];
            ensures =
              A.seps [ pt "l" (v0_plus 1); A.Ghost (gamma, auth (v0_plus 1)) ];
            body =
              HL.Let
                ( "c",
                  HL.Load (HL.Val (HL.Sym "l")),
                  HL.Seq
                    ( HL.Store
                        ( HL.Val (HL.Sym "l"),
                          HL.BinOp (HL.Add, HL.Var "c", HL.Val (HL.Int 1)) ),
                      HL.GhostMark "bump" ) );
            invariants = [];
            ghost =
              [ ("bump", [ V.Update (gamma, auth v0, auth (v0_plus 1)) ]) ];
          };
        ];
      preds = Stdx.Smap.empty;
      invs = [];
    }
    "ghost_incr"

(* A MaxNat ghost lower bound survives the update (persistence). *)
let monotone =
  let gamma = "γm" in
  entry ~descr:"monotone counter: MaxNat ghost bound survives updates"
    "monotone"
    {
      V.procs =
        [
          {
            V.pname = "bump_log";
            params = [ "l"; "v0" ];
            requires =
              A.seps
                [
                  pt "l" v0;
                  A.Ghost (gamma, GV.Max_nat v0);
                  A.Pure (T.le (T.int 0) v0);
                ];
            ensures =
              A.seps [ pt "l" (v0_plus 2); A.Ghost (gamma, GV.Max_nat v0) ];
            body =
              HL.Let
                ( "c",
                  HL.Load (HL.Val (HL.Sym "l")),
                  HL.Seq
                    ( HL.Store
                        ( HL.Val (HL.Sym "l"),
                          HL.BinOp (HL.Add, HL.Var "c", HL.Val (HL.Int 2)) ),
                      HL.GhostMark "bump" ) );
            invariants = [];
            ghost =
              [
                ( "bump",
                  [ V.Update (gamma, GV.Max_nat v0, GV.Max_nat (v0_plus 2)) ]
                );
              ];
          };
        ];
      preds = Stdx.Smap.empty;
      invs = [];
    }
    "bump_log"

(* ------------------------------------------------------------------ *)

let list_length =
  hl ~descr:"recursive chain length with a recursive predicate" "list_length"
    "length"

let length_proc = main_proc list_length
let clist_preds = list_length.prog.V.preds

let all : entry list =
  [
    swap;
    swap_client;
    count;
    max3;
    clamp;
    bank;
    ghost_counter;
    monotone;
    list_length;
    hl ~descr:"compare-and-set with a disjunctive postcondition" "cas_once"
      "cas_once";
    hl ~descr:"two fetch-and-adds" ~baseline:restate "faa_counter" "faa_twice";
    hl ~descr:"7·n by repeated addition; invariant links two cells" "times7"
      "times7";
    hl ~descr:"CAS retry loop establishing a fixed value" "cas_retry"
      "cas_retry";
    hl ~descr:"alloc/use/free lifecycle; the final heap is empty"
      ~baseline:restate "lifecycle" "lifecycle";
    hl ~descr:"two half-permissions read consistently and rejoin"
      ~baseline:restate "shared_read" "shared_read";
    hl
      ~descr:
        "spinlock: CAS acquire transfers the cell out of the lock invariant"
      "spinlock" "spinlock";
    hl ~descr:"ticket lock: FAA dispenser under a weakened safety invariant"
      "ticket_lock" "ticket_lock";
    hl ~descr:"Treiber stack: recursive predicate owned by the invariant"
      "treiber" "treiber";
    hl ~descr:"swap with a wrong postcondition (must fail)" ~expect_fail:true
      "bad_swap" "bad_swap";
    hl ~descr:"reads a location without permission (must fail)"
      ~expect_fail:true "bad_leak" "bad_leak";
    hl ~descr:"stale heap-dependent fact after store (must fail)"
      ~expect_fail:true "bad_unstable" "bad_unstable";
    hl ~descr:"double free (must fail)" ~expect_fail:true "bad_double_free"
      "bad_double_free";
    hl ~descr:"store through a half permission (must fail)" ~expect_fail:true
      "bad_half_write" "bad_half_write";
    hl
      ~descr:
        "parallel increment without atomic sections (must fail: branches \
         own nothing)"
      ~expect_fail:true "racy_incr" "racy_incr";
    hl
      ~descr:
        "spinlock body with no declared invariant (must fail: the CAS has \
         no permission source)"
      ~expect_fail:true "lock_noinv" "lock_noinv";
  ]

let positive = List.filter (fun e -> not e.expect_fail) all
let negative = List.filter (fun e -> e.expect_fail) all
