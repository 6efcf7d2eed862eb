(** Abstract syntax of the programming language.

    An ML-style untyped lambda calculus with a mutable higher-order
    heap, in the image of Iris's HeapLang: recursive functions, pairs,
    sums, and the usual heap primitives including atomic
    compare-and-set and fetch-and-add. [While] and [Let] are provided
    as first-class constructs (rather than the usual encodings) because
    the verifier attaches loop invariants and scoping to them; the
    operational semantics treats them exactly as their encodings. *)

type loc = int

type un_op = Neg  (** integer negation *) | Not  (** boolean negation *)

type bin_op =
  | Add
  | Sub
  | Mul
  | Div  (** truncated toward zero, as in OCaml *)
  | Rem
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | AndOp
  | OrOp

type value =
  | Unit
  | Bool of bool
  | Int of int
  | Loc of loc
  | Pair of value * value
  | InjL of value
  | InjR of value
  | RecV of string option * string * expr
      (** recursive closure [rec f x := e]; substitution-based, so no
          environment *)
  | Sym of string
      (** a logical variable embedded in a program under verification;
          the operational semantics is stuck on it — programs are
          closed by substituting concrete values before running *)

and expr =
  | Val of value
  | Var of string
  | Rec of string option * string * expr
  | App of expr * expr
  | UnOp of un_op * expr
  | BinOp of bin_op * expr * expr
  | If of expr * expr * expr
  | Let of string * expr * expr
  | Seq of expr * expr
  | While of expr * expr
  | PairE of expr * expr
  | Fst of expr
  | Snd of expr
  | InjLE of expr
  | InjRE of expr
  | Case of expr * (string * expr) * (string * expr)
      (** [match e with InjL x -> e1 | InjR y -> e2] *)
  | Alloc of expr
  | Load of expr
  | Store of expr * expr
  | Free of expr
  | Cas of expr * expr * expr  (** location, expected, new; returns bool *)
  | Faa of expr * expr  (** location, delta; returns old value *)
  | Assert of expr
  | GhostMark of string
      (** a verifier annotation point (fold/unfold/ghost update), keyed
          into a side table; operationally a no-op returning unit *)
  | Par of expr * expr
      (** structured fork-join: both branches run to values under an
          interleaving scheduler, their results are discarded, and the
          join returns unit *)
  | Atomic of expr
      (** an atomic section: the body runs to a value in one
          indivisible scheduler step — the only program points where
          the verifier opens named invariants *)

(** [e] with [f] applied to each immediate subexpression, binders
    untouched; a leaf ([Val], [Var], [GhostMark]) is returned as is.
    Traversals write their interesting cases and hand the rest here. *)
let map_children f e =
  match e with
  | Val _ | Var _ | GhostMark _ -> e
  | Rec (g, x, b) -> Rec (g, x, f b)
  | App (a, b) -> App (f a, f b)
  | UnOp (op, a) -> UnOp (op, f a)
  | BinOp (op, a, b) -> BinOp (op, f a, f b)
  | If (c, a, b) -> If (f c, f a, f b)
  | Let (x, a, b) -> Let (x, f a, f b)
  | Seq (a, b) -> Seq (f a, f b)
  | While (c, b) -> While (f c, f b)
  | PairE (a, b) -> PairE (f a, f b)
  | Fst a -> Fst (f a)
  | Snd a -> Snd (f a)
  | InjLE a -> InjLE (f a)
  | InjRE a -> InjRE (f a)
  | Case (a, (x, l), (y, r)) -> Case (f a, (x, f l), (y, f r))
  | Alloc a -> Alloc (f a)
  | Load a -> Load (f a)
  | Store (a, b) -> Store (f a, f b)
  | Free a -> Free (f a)
  | Cas (a, b, c) -> Cas (f a, f b, f c)
  | Faa (a, b) -> Faa (f a, f b)
  | Assert a -> Assert (f a)
  | Par (a, b) -> Par (f a, f b)
  | Atomic a -> Atomic (f a)

(* ------------------------------------------------------------------ *)
(* Printing *)

let pp_un_op ppf = function
  | Neg -> Fmt.string ppf "-"
  | Not -> Fmt.string ppf "!"

let pp_bin_op ppf op =
  Fmt.string ppf
    (match op with
    | Add -> "+"
    | Sub -> "-"
    | Mul -> "*"
    | Div -> "/"
    | Rem -> "%"
    | Eq -> "=="
    | Ne -> "!="
    | Lt -> "<"
    | Le -> "<="
    | Gt -> ">"
    | Ge -> ">="
    | AndOp -> "&&"
    | OrOp -> "||")

let rec pp_value ppf = function
  | Unit -> Fmt.string ppf "()"
  | Bool b -> Fmt.bool ppf b
  | Int n -> Fmt.int ppf n
  | Loc l -> Fmt.pf ppf "#%d" l
  | Pair (a, b) -> Fmt.pf ppf "(%a, %a)" pp_value a pp_value b
  | InjL v -> Fmt.pf ppf "inl %a" pp_value v
  | InjR v -> Fmt.pf ppf "inr %a" pp_value v
  | RecV (Some f, x, _) -> Fmt.pf ppf "<rec %s %s>" f x
  | RecV (None, x, _) -> Fmt.pf ppf "<fun %s>" x
  | Sym x -> Fmt.pf ppf "?%s" x

let rec pp_expr ppf = function
  | Val v -> pp_value ppf v
  | Var x -> Fmt.string ppf x
  | Rec (Some f, x, e) -> Fmt.pf ppf "(rec %s %s := %a)" f x pp_expr e
  | Rec (None, x, e) -> Fmt.pf ppf "(fun %s -> %a)" x pp_expr e
  | App (f, a) -> Fmt.pf ppf "(%a %a)" pp_expr f pp_expr a
  | UnOp (op, e) -> Fmt.pf ppf "%a%a" pp_un_op op pp_expr e
  | BinOp (op, a, b) ->
      Fmt.pf ppf "(%a %a %a)" pp_expr a pp_bin_op op pp_expr b
  | If (c, a, b) ->
      Fmt.pf ppf "(if %a then %a else %a)" pp_expr c pp_expr a pp_expr b
  | Let (x, e1, e2) ->
      Fmt.pf ppf "@[<v>let %s = %a in@ %a@]" x pp_expr e1 pp_expr e2
  | Seq (a, b) -> Fmt.pf ppf "@[<v>%a;@ %a@]" pp_expr a pp_expr b
  | While (c, b) -> Fmt.pf ppf "@[<v>while %a do@;<1 2>%a@ done@]" pp_expr c pp_expr b
  | PairE (a, b) -> Fmt.pf ppf "(%a, %a)" pp_expr a pp_expr b
  | Fst e -> Fmt.pf ppf "fst %a" pp_expr e
  | Snd e -> Fmt.pf ppf "snd %a" pp_expr e
  | InjLE e -> Fmt.pf ppf "inl %a" pp_expr e
  | InjRE e -> Fmt.pf ppf "inr %a" pp_expr e
  | Case (e, (x, e1), (y, e2)) ->
      Fmt.pf ppf "(match %a with inl %s -> %a | inr %s -> %a)" pp_expr e x
        pp_expr e1 y pp_expr e2
  | Alloc e -> Fmt.pf ppf "ref %a" pp_expr e
  | Load e -> Fmt.pf ppf "!%a" pp_expr e
  | Store (l, e) -> Fmt.pf ppf "(%a <- %a)" pp_expr l pp_expr e
  | Free e -> Fmt.pf ppf "free %a" pp_expr e
  | Cas (l, a, b) -> Fmt.pf ppf "CAS(%a, %a, %a)" pp_expr l pp_expr a pp_expr b
  | Faa (l, d) -> Fmt.pf ppf "FAA(%a, %a)" pp_expr l pp_expr d
  | Assert e -> Fmt.pf ppf "assert %a" pp_expr e
  | GhostMark k -> Fmt.pf ppf "ghost[%s]" k
  | Par (a, b) ->
      Fmt.pf ppf "@[<v>par {@;<1 2>%a@ } {@;<1 2>%a@ }@]" pp_expr a pp_expr b
  | Atomic e -> Fmt.pf ppf "atomic { %a }" pp_expr e

let rec value_equal (a : value) (b : value) =
  match (a, b) with
  | Unit, Unit -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Loc x, Loc y -> x = y
  | Pair (a1, a2), Pair (b1, b2) -> value_equal a1 b1 && value_equal a2 b2
  | InjL x, InjL y | InjR x, InjR y -> value_equal x y
  | RecV _, RecV _ -> a == b  (* physical, as comparing code is undecidable *)
  | Sym x, Sym y -> String.equal x y
  | _ -> false

(** Convenience constructors for examples and tests. The operators
    shadow stdlib arithmetic, so they live in a module to [open]
    locally. *)
module Syntax = struct
  let unit_ = Val Unit
  let int n = Val (Int n)
  let bool b = Val (Bool b)
  let var x = Var x
  let lam x e = Rec (None, x, e)
  let rec_ f x e = Rec (Some f, x, e)
  let app f a = App (f, a)
  let let_ x e1 e2 = Let (x, e1, e2)
  let seq a b = Seq (a, b)
  let if_ c a b = If (c, a, b)
  let alloc e = Alloc e
  let load e = Load e
  let store l e = Store (l, e)
  let ( + ) a b = BinOp (Add, a, b)
  let ( - ) a b = BinOp (Sub, a, b)
  let ( * ) a b = BinOp (Mul, a, b)
  let ( = ) a b = BinOp (Eq, a, b)
  let ( < ) a b = BinOp (Lt, a, b)
  let ( <= ) a b = BinOp (Le, a, b)
end
