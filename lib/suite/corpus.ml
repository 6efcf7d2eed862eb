(** Synthetic corpus generator for whole-pipeline throughput.

    Scales the {!Generators} workload families to thousands of
    *distinct* procedures: every procedure gets its own constants and
    variable names, so no two procedures share their VCs. A
    deterministic [seed] makes the corpus reproducible across processes
    and machines — the [corpus-golden] engine test pins the verdict
    manifests of the fixed-seed corpus.

    A slice of the corpus (roughly one in twelve procedures) carries a
    deliberately wrong postcondition ([expect_fail]); throughput
    benchmarks double as a verdict-stability check because the
    expected verdict travels with each spec. *)

open Stdx
module A = Baselogic.Assertion
module T = Smt.Term
module HL = Heaplang.Ast
module V = Verifier.Exec

type spec = {
  name : string;
  program : V.program;
  expect_fail : bool;  (** the procedure must FAIL verification *)
}

let sym x = HL.Val (HL.Sym x)
let pt l v = A.points_to (T.var l) v

(** A chain of [n] updates of one cell starting at the symbolic value
    [v]; each step adds [step]; returns the final load. The
    postcondition claims the closed form [v + n*step (+ post_off)],
    so every procedure costs a real LIA entailment — the symbolic
    start value defeats constant folding. [post_off <> 0] skews the
    claimed final value (the spec is wrong). *)
let chain ~name ~n ~step ~salt ~post_off : V.proc =
  let v = Printf.sprintf "v%d" salt in
  let rec build i =
    if i = 0 then HL.Load (sym "l")
    else
      let c = Printf.sprintf "c%d_%d" salt i
      and d = Printf.sprintf "d%d_%d" salt i in
      HL.Let
        ( c,
          HL.Load (sym "l"),
          HL.Let
            ( d,
              HL.BinOp (HL.Add, HL.Var c, HL.Val (HL.Int step)),
              HL.Seq (HL.Store (sym "l", HL.Var d), build (i - 1)) ) )
  in
  let final = T.add (T.var v) (T.int ((n * step) + post_off)) in
  {
    V.pname = name;
    params = [ "l" ];
    requires = pt "l" (T.var v);
    ensures =
      A.Sep (pt "l" final, A.Pure (T.eq (T.var "result") final));
    body = build n;
    invariants = [];
    ghost = [];
  }

(** [k] cells with per-cell symbolic initial values, each bumped by
    [step]. The postcondition states each final value commuted
    ([step + v_i]) so chunk matching needs the solver rather than
    structural equality. [wrong_cell >= 0] skews that cell's claimed
    final value. *)
let cells ~name ~k ~step ~salt ~wrong_cell : V.proc =
  let cell i = Printf.sprintf "m%d_%d" salt i in
  let v i = Printf.sprintf "w%d_%d" salt i in
  let rec build i =
    let bump =
      HL.Let
        ( "c",
          HL.Load (sym (cell i)),
          HL.Let
            ( "d",
              HL.BinOp (HL.Add, HL.Var "c", HL.Val (HL.Int step)),
              HL.Store (sym (cell i), HL.Var "d") ) )
    in
    if i = k - 1 then bump else HL.Seq (bump, build (i + 1))
  in
  let post i =
    let off = step + if i = wrong_cell then 1 else 0 in
    pt (cell i) (T.add (T.int off) (T.var (v i)))
  in
  {
    V.pname = name;
    params = List.init k cell;
    requires = A.seps (List.init k (fun i -> pt (cell i) (T.var (v i))));
    ensures = A.seps (List.init k post);
    body = build 0;
    invariants = [];
    ghost = [];
  }

(** Deterministic corpus of [size] single-procedure programs. *)
let generate ~seed ~size : spec list =
  let rng = Random.State.make [| 0x5eed; seed |] in
  List.init size (fun i ->
      let fail = Random.State.int rng 12 = 0 in
      let salt = i in
      let proc, fam =
        if Random.State.bool rng then
          let n = 3 + Random.State.int rng 8 in
          let step = 1 + Random.State.int rng 9 in
          ( chain
              ~name:(Printf.sprintf "corpus%04d_chain%d" i n)
              ~n ~step ~salt
              ~post_off:(if fail then 1 + Random.State.int rng 3 else 0),
            "chain" )
        else
          let k = 2 + Random.State.int rng 7 in
          let step = 1 + Random.State.int rng 9 in
          ( cells
              ~name:(Printf.sprintf "corpus%04d_cells%d" i k)
              ~k ~step ~salt
              ~wrong_cell:(if fail then Random.State.int rng k else -1),
            "cells" )
      in
      ignore fam;
      {
        name = proc.V.pname;
        program = { V.procs = [ proc ]; preds = Smap.empty; invs = [] };
        expect_fail = fail;
      })

(** Canonical digest of a verdict manifest: MD5 over "name:verdict"
    lines. The [corpus-golden] engine test pins the full digest to
    catch verdict drift. *)
let manifest_digest (verdicts : (string * bool) list) : string =
  verdicts
  |> List.map (fun (name, failed) ->
         Printf.sprintf "%s:%s\n" name (if failed then "failed" else "verified"))
  |> String.concat ""
  |> Digest.string |> Digest.to_hex
