(** Capture-avoiding substitution of values for variables.

    Because we only ever substitute *values* (which are closed), no
    renaming is needed — we just stop at binders that shadow the
    substituted variable. This is the standard HeapLang setup. *)

open Ast

let rec subst x v (e : expr) : expr =
  let go = subst x v in
  match e with
  | Var y -> if String.equal x y then Val v else e
  | Rec (f, y, body) ->
      if Some x = f || String.equal x y then e else Rec (f, y, go body)
  | Let (y, e1, e2) ->
      Let (y, go e1, if String.equal x y then e2 else go e2)
  | Case (e1, (y, l), (z, r)) ->
      Case
        ( go e1,
          (y, if String.equal x y then l else go l),
          (z, if String.equal x z then r else go r) )
  | _ -> map_children go e

(** Close a program's symbolic values ([Sym x]) with concrete values —
    used before running a verified program or model-checking a WP. *)
let rec close_value (env : (string * value) list) (v : value) : value =
  match v with
  | Sym x -> ( match List.assoc_opt x env with Some v -> v | None -> v)
  | Pair (a, b) -> Pair (close_value env a, close_value env b)
  | InjL a -> InjL (close_value env a)
  | InjR a -> InjR (close_value env a)
  | RecV (f, x, e) -> RecV (f, x, close_expr env e)
  | Unit | Bool _ | Int _ | Loc _ -> v

and close_expr env (e : expr) : expr =
  match e with
  | Val v -> Val (close_value env v)
  | _ -> map_children (close_expr env) e

(** Free variables of an expression (for closedness checks). *)
let free_vars (e : expr) : string list =
  let module S = Set.Make (String) in
  let rec go bound acc = function
    | Val _ | GhostMark _ -> acc
    | Var x -> if S.mem x bound then acc else S.add x acc
    | Rec (f, x, body) ->
        let bound = S.add x bound in
        let bound = match f with Some f -> S.add f bound | None -> bound in
        go bound acc body
    | App (a, b) | BinOp (_, a, b) | Seq (a, b) | While (a, b)
    | PairE (a, b) | Store (a, b) | Faa (a, b) | Par (a, b) ->
        go bound (go bound acc a) b
    | UnOp (_, a) | Fst a | Snd a | InjLE a | InjRE a | Alloc a | Load a
    | Free a | Assert a | Atomic a ->
        go bound acc a
    | If (c, a, b) | Cas (c, a, b) ->
        go bound (go bound (go bound acc c) a) b
    | Let (x, a, b) -> go (S.add x bound) (go bound acc a) b
    | Case (e, (x, l), (y, r)) ->
        let acc = go bound acc e in
        let acc = go (S.add x bound) acc l in
        go (S.add y bound) acc r
  in
  S.elements (go S.empty S.empty e)
