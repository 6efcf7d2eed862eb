(** Capture-avoiding substitution of values for variables.

    Because we only ever substitute *values* (which are closed), no
    renaming is needed — we just stop at binders that shadow the
    substituted variable. This is the standard HeapLang setup. *)

open Ast

let rec subst x v (e : expr) : expr =
  let go = subst x v in
  match e with
  | Val _ -> e
  | Var y -> if String.equal x y then Val v else e
  | Rec (f, y, body) ->
      if Some x = f || String.equal x y then e else Rec (f, y, go body)
  | App (e1, e2) -> App (go e1, go e2)
  | UnOp (op, e1) -> UnOp (op, go e1)
  | BinOp (op, e1, e2) -> BinOp (op, go e1, go e2)
  | If (c, a, b) -> If (go c, go a, go b)
  | Let (y, e1, e2) ->
      Let (y, go e1, if String.equal x y then e2 else go e2)
  | Seq (a, b) -> Seq (go a, go b)
  | While (c, b) -> While (go c, go b)
  | PairE (a, b) -> PairE (go a, go b)
  | Fst e1 -> Fst (go e1)
  | Snd e1 -> Snd (go e1)
  | InjLE e1 -> InjLE (go e1)
  | InjRE e1 -> InjRE (go e1)
  | Case (e1, (y, l), (z, r)) ->
      Case
        ( go e1,
          (y, if String.equal x y then l else go l),
          (z, if String.equal x z then r else go r) )
  | Alloc e1 -> Alloc (go e1)
  | Load e1 -> Load (go e1)
  | Store (e1, e2) -> Store (go e1, go e2)
  | Free e1 -> Free (go e1)
  | Cas (e1, e2, e3) -> Cas (go e1, go e2, go e3)
  | Faa (e1, e2) -> Faa (go e1, go e2)
  | Assert e1 -> Assert (go e1)
  | GhostMark _ -> e
  | Par (e1, e2) -> Par (go e1, go e2)
  | Atomic e1 -> Atomic (go e1)

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
  let go = close_expr env in
  match e with
  | Val v -> Val (close_value env v)
  | Var _ -> e
  | Rec (f, x, body) -> Rec (f, x, go body)
  | App (a, b) -> App (go a, go b)
  | UnOp (op, a) -> UnOp (op, go a)
  | BinOp (op, a, b) -> BinOp (op, go a, go b)
  | If (c, a, b) -> If (go c, go a, go b)
  | Let (x, a, b) -> Let (x, go a, go b)
  | Seq (a, b) -> Seq (go a, go b)
  | While (c, b) -> While (go c, go b)
  | PairE (a, b) -> PairE (go a, go b)
  | Fst a -> Fst (go a)
  | Snd a -> Snd (go a)
  | InjLE a -> InjLE (go a)
  | InjRE a -> InjRE (go a)
  | Case (a, (x, l), (y, r)) -> Case (go a, (x, go l), (y, go r))
  | Alloc a -> Alloc (go a)
  | Load a -> Load (go a)
  | Store (a, b) -> Store (go a, go b)
  | Free a -> Free (go a)
  | Cas (a, b, c) -> Cas (go a, go b, go c)
  | Faa (a, b) -> Faa (go a, go b)
  | Assert a -> Assert (go a)
  | GhostMark _ -> e
  | Par (a, b) -> Par (go a, go b)
  | Atomic a -> Atomic (go a)

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
