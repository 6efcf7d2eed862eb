(** Elaboration of whole annotated surface programs onto the verifier.

    {!Heaplang.Parser.parse_program} produces a located
    {!Heaplang.Surface.program}; this module lowers it to an
    {!Exec.program} plus a {!Diag.srcmap} — the clause-granularity
    record of where each specification came from, so that every
    diagnostic raised against the elaborated (span-free) program can be
    re-anchored at [file:line:col] in the original source.

    Two conventions of the hand-built suite are reproduced here:

    - procedure parameters appear as [Sym] values in bodies and as term
      variables in specifications, with the same name. Surface bodies
      write parameters as plain identifiers; [close] substitutes
      [Var x ↦ Val (Sym x)] for every parameter not shadowed by a
      binder (let / fun / rec / match arms);
    - loop invariants are keyed by the *physical identity* of their
      [While] node and ghost blocks by their [GhostMark] key. [close]
      rebuilds the body, so it also returns the old→new [While] node
      correspondence, and the invariant table is re-keyed across it. *)

module S = Heaplang.Surface
module HL = Heaplang.Ast
module A = Baselogic.Assertion
module E = Baselogic.Elab
module SS = Set.Make (String)

let ghost_cmd : S.ghost_cmd -> Exec.ghost_cmd = function
  | S.GFold (p, args) -> Exec.Fold (p, List.map E.term args)
  | S.GUnfold (p, args) -> Exec.Unfold (p, List.map E.term args)
  | S.GAssert a -> Exec.AssertA (E.assertion a)

(** Close a procedure body over its parameters: substitute
    [Var x ↦ Val (Sym x)] for unshadowed parameters. Returns the
    rebuilt body and the association of original [While] nodes to
    their rebuilt twins (physical identity on both sides). *)
let close (params : string list) (body : HL.expr) :
    HL.expr * (HL.expr * HL.expr) list =
  let params = SS.of_list params in
  let remap = ref [] in
  let rec go bound e =
    match e with
    | HL.Var x when SS.mem x params && not (SS.mem x bound) ->
        HL.Val (HL.Sym x)
    | HL.Rec (f, x, b) ->
        let bound =
          match f with Some f -> SS.add f bound | None -> bound
        in
        HL.Rec (f, x, go (SS.add x bound) b)
    | HL.Let (x, e1, e2) -> HL.Let (x, go bound e1, go (SS.add x bound) e2)
    | HL.Case (s, (x, e1), (y, e2)) ->
        HL.Case (go bound s, (x, go (SS.add x bound) e1),
                 (y, go (SS.add y bound) e2))
    | HL.While _ ->
        let node = HL.map_children (go bound) e in
        remap := (e, node) :: !remap;
        node
    | _ -> HL.map_children (go bound) e
  in
  let body' = go SS.empty body in
  (body', !remap)

let proc (p : S.proc) : Exec.proc * Diag.srcmap =
  let body, while_map = close p.S.p_params p.S.p_body in
  let invariants =
    List.map
      (fun (node, a) ->
        let node' =
          match List.assq_opt node while_map with
          | Some n -> n
          | None -> node
        in
        (node', E.assertion a))
      p.S.p_invariants
  in
  let ghost =
    List.map (fun (k, cmds, _) -> (k, List.map ghost_cmd cmds)) p.S.p_ghost
  in
  let opt = function None -> A.Emp | Some a -> E.assertion a in
  let ctx = Diag.Proc p.S.p_name in
  let srcmap =
    List.concat
      [
        (match p.S.p_requires with
        | Some a -> [ ((ctx, Diag.Requires), a.S.aspan) ]
        | None -> []);
        (match p.S.p_ensures with
        | Some a -> [ ((ctx, Diag.Ensures), a.S.aspan) ]
        | None -> []);
        List.mapi
          (fun i (_, (a : S.assertion)) ->
            ((ctx, Diag.Invariant i), a.S.aspan))
          p.S.p_invariants;
        List.map
          (fun (k, _, span) -> ((ctx, Diag.Ghost_block k), span))
          p.S.p_ghost;
        [ ((ctx, Diag.Body), p.S.p_body_span) ];
      ]
  in
  ( {
      Exec.pname = p.S.p_name;
      params = p.S.p_params;
      requires = opt p.S.p_requires;
      ensures = opt p.S.p_ensures;
      body;
      invariants;
      ghost;
    },
    srcmap )

(** Lower a surface program. The returned source map covers every
    specification clause of every procedure and predicate. *)
let program (sp : S.program) : Exec.program * Diag.srcmap =
  let preds =
    Stdx.Smap.of_list
      (List.map
         (fun (pr : S.pred) -> (pr.S.pr_name, E.pred pr))
         sp.S.prog_preds)
  in
  let pred_map =
    List.map
      (fun (pr : S.pred) ->
        ((Diag.Pred pr.S.pr_name, Diag.Pred_body), pr.S.pr_body.S.aspan))
      sp.S.prog_preds
  in
  let invs =
    List.map
      (fun (iv : S.inv) -> (iv.S.i_name, E.assertion iv.S.i_body))
      sp.S.prog_invs
  in
  let inv_map =
    List.map
      (fun (iv : S.inv) ->
        ((Diag.Inv iv.S.i_name, Diag.Inv_body), iv.S.i_body.S.aspan))
      sp.S.prog_invs
  in
  let procs, maps = List.split (List.map proc sp.S.prog_procs) in
  ({ Exec.procs; preds; invs }, pred_map @ inv_map @ List.concat maps)

(** Parse and elaborate in one step. Raises {!Heaplang.Parser.Parse_error},
    {!Heaplang.Lexer.Lex_error}, or {!Baselogic.Elab.Elab_error}. *)
let program_of_string ?file src : Exec.program * Diag.srcmap =
  program (Heaplang.Parser.parse_program ?file src)
