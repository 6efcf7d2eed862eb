(** Small-step operational semantics: HeapLang's one machine.

    Configurations are (expression, heap) pairs; [step] performs one
    head-or-context reduction, returning [Stuck] on runtime errors
    (type confusion, dangling loads, failed assertions). Evaluation is
    left-to-right, call-by-value, the order the verifier's symbolic
    execution follows. [run] drives [step] to a value under a step
    budget; the CLI's [run], the examples and the tests run programs
    through it, and the kernel's finite model ({!Baselogic.Semantics})
    steps [step] itself. *)

open Ast

type cfg = { expr : expr; heap : Heap.t }

type outcome = Done of value * Heap.t | Next of cfg | Stuck of string

let stuck fmt = Fmt.kstr (fun s -> Stuck s) fmt

(** The interleaving scheduler: a seeded splitmix64 stream of thread
    choices. Every [par] node with two runnable branches consults the
    stream once per machine step, so a run is a pure function of
    (program, seed) — replayable, and permutable by varying the seed.
    Without a scheduler the machine is deterministic left-first, which
    keeps the sequential semantics (and every existing test) intact. *)
module Sched = struct
  type t = { mutable state : int64 }

  let create ~seed = { state = Int64.of_int seed }

  (* splitmix64 (Steele–Lea–Flood); small, stateless between calls,
     and good enough to exercise interleavings. *)
  let next_int64 (s : t) : int64 =
    s.state <- Int64.add s.state 0x9E3779B97F4A7C15L;
    let z = s.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (** A choice in [0, n). *)
  let pick (s : t) (n : int) : int =
    if n <= 1 then 0
    else
      Int64.to_int
        (Int64.rem
           (Int64.shift_right_logical (next_int64 s) 1)
           (Int64.of_int n))
end

let is_val = function Val _ -> true | _ -> false

(** Step budget for one atomic section: the body must terminate within
    one (indivisible) scheduler step, so it gets its own bound rather
    than competing with the surrounding run's fuel. *)
let atomic_fuel = 1_000_000

(** Why an operator has no result: ill-typed operands or a zero
    divisor, or an exact integer result that a native [int] cannot
    hold. HeapLang's integers are unbounded, so the machine never
    wraps; a step whose result is not representable fails instead. *)
type op_error = Bad_operands | Overflow

let overflow_msg = "integer overflow: result not representable"

(* {!Stdx.Checked} raises rather than wrap. *)
let exact f a b =
  match f a b with
  | n -> Ok (Int n)
  | exception Stdx.Checked.Overflow -> Error Overflow

let eval_un_op op v =
  match (op, v) with
  | Neg, Int n -> exact Stdx.Checked.sub 0 n
  | Not, Bool b -> Ok (Bool (not b))
  | _ -> Error Bad_operands

let eval_bin_op op v1 v2 =
  match (op, v1, v2) with
  | Add, Int a, Int b -> exact Stdx.Checked.add a b
  | Sub, Int a, Int b -> exact Stdx.Checked.sub a b
  | Mul, Int a, Int b -> exact Stdx.Checked.mul a b
  | (Div | Rem), Int _, Int 0 -> Error Bad_operands
  | Div, Int a, Int b -> exact Stdx.Checked.div a b
  | Rem, Int a, Int b -> exact Stdx.Checked.rem a b
  | Eq, a, b -> Ok (Bool (value_equal a b))
  | Ne, a, b -> Ok (Bool (not (value_equal a b)))
  | Lt, Int a, Int b -> Ok (Bool (a < b))
  | Le, Int a, Int b -> Ok (Bool (a <= b))
  | Gt, Int a, Int b -> Ok (Bool (a > b))
  | Ge, Int a, Int b -> Ok (Bool (a >= b))
  | AndOp, Bool a, Bool b -> Ok (Bool (a && b))
  | OrOp, Bool a, Bool b -> Ok (Bool (a || b))
  | _ -> Error Bad_operands

(** One step. Structured as: try a head reduction; otherwise descend
    into the leftmost non-value subterm. [sched] interleaves [Par]
    branches; without it the machine is deterministic left-first. *)
let rec step ?sched ({ expr; heap } as cfg : cfg) : outcome =
  let ret e h = Next { expr = e; heap = h } in
  let descend wrap e =
    match step ?sched { cfg with expr = e } with
    | Next c -> Next { c with expr = wrap c.expr }
    | Done (v, h) -> Next { expr = wrap (Val v); heap = h }
    | Stuck m -> Stuck m
  in
  match expr with
  | Val v -> Done (v, heap)
  | Var x -> stuck "unbound variable %s" x
  | Rec (f, x, e) -> ret (Val (RecV (f, x, e))) heap
  | App (Val (RecV (f, x, body) as clo), Val arg) ->
      let body = Subst.subst x arg body in
      let body =
        match f with Some f -> Subst.subst f clo body | None -> body
      in
      ret body heap
  | App (Val v, Val _) -> stuck "applied non-function %a" pp_value v
  | App ((Val _ as f), a) -> descend (fun a -> App (f, a)) a
  | App (f, a) -> descend (fun f -> App (f, a)) f
  | UnOp (op, Val v) -> (
      match eval_un_op op v with
      | Ok v -> ret (Val v) heap
      | Error Overflow -> Stuck overflow_msg
      | Error Bad_operands -> stuck "bad unary operand %a" pp_value v)
  | UnOp (op, e) -> descend (fun e -> UnOp (op, e)) e
  | BinOp (op, Val v1, Val v2) -> (
      match eval_bin_op op v1 v2 with
      | Ok v -> ret (Val v) heap
      | Error Overflow -> Stuck overflow_msg
      | Error Bad_operands ->
          stuck "bad binary operands %a %a %a" pp_value v1 pp_bin_op op
            pp_value v2)
  | BinOp (op, (Val _ as a), b) -> descend (fun b -> BinOp (op, a, b)) b
  | BinOp (op, a, b) -> descend (fun a -> BinOp (op, a, b)) a
  | If (Val (Bool true), a, _) -> ret a heap
  | If (Val (Bool false), _, b) -> ret b heap
  (* Untyped machine: integers act as booleans (0 = false) and as
     addresses, matching the logic's first-order encoding. *)
  | If (Val (Int n), a, b) -> ret (if n <> 0 then a else b) heap
  | If (Val v, _, _) -> stuck "if on non-boolean %a" pp_value v
  | If (c, a, b) -> descend (fun c -> If (c, a, b)) c
  | Let (x, Val v, body) -> ret (Subst.subst x v body) heap
  | Let (x, e, body) -> descend (fun e -> Let (x, e, body)) e
  | Seq (Val _, b) -> ret b heap
  | Seq (a, b) -> descend (fun a -> Seq (a, b)) a
  | While (c, body) ->
      (* Unfold: if c then (body; while c do body) else (). *)
      ret (If (c, Seq (body, While (c, body)), Val Unit)) heap
  | PairE (Val a, Val b) -> ret (Val (Pair (a, b))) heap
  | PairE ((Val _ as a), b) -> descend (fun b -> PairE (a, b)) b
  | PairE (a, b) -> descend (fun a -> PairE (a, b)) a
  | Fst (Val (Pair (a, _))) -> ret (Val a) heap
  | Fst (Val v) -> stuck "fst of %a" pp_value v
  | Fst e -> descend (fun e -> Fst e) e
  | Snd (Val (Pair (_, b))) -> ret (Val b) heap
  | Snd (Val v) -> stuck "snd of %a" pp_value v
  | Snd e -> descend (fun e -> Snd e) e
  | InjLE (Val v) -> ret (Val (InjL v)) heap
  | InjLE e -> descend (fun e -> InjLE e) e
  | InjRE (Val v) -> ret (Val (InjR v)) heap
  | InjRE e -> descend (fun e -> InjRE e) e
  | Case (Val (InjL v), (x, l), _) -> ret (Subst.subst x v l) heap
  | Case (Val (InjR v), _, (y, r)) -> ret (Subst.subst y v r) heap
  | Case (Val v, _, _) -> stuck "case on %a" pp_value v
  | Case (e, l, r) -> descend (fun e -> Case (e, l, r)) e
  | Alloc (Val v) ->
      let heap, l = Heap.alloc heap v in
      ret (Val (Loc l)) heap
  | Alloc e -> descend (fun e -> Alloc e) e
  | Load (Val (Int l)) when l >= 0 -> step ?sched { cfg with expr = Load (Val (Loc l)) }
  | Load (Val (Loc l)) -> (
      match Heap.lookup heap l with
      | Some v -> ret (Val v) heap
      | None -> stuck "load from dangling #%d" l)
  | Load (Val v) -> stuck "load from non-location %a" pp_value v
  | Load e -> descend (fun e -> Load e) e
  | Store (Val (Int l), (Val _ as v)) when l >= 0 ->
      step ?sched { cfg with expr = Store (Val (Loc l), v) }
  | Store (Val (Loc l), Val v) -> (
      match Heap.store heap l v with
      | Some heap -> ret (Val Unit) heap
      | None -> stuck "store to dangling #%d" l)
  | Store (Val v, Val _) -> stuck "store to non-location %a" pp_value v
  | Store ((Val _ as l), e) -> descend (fun e -> Store (l, e)) e
  | Store (l, e) -> descend (fun l -> Store (l, e)) l
  | Free (Val (Int l)) when l >= 0 -> step ?sched { cfg with expr = Free (Val (Loc l)) }
  | Free (Val (Loc l)) -> (
      match Heap.free heap l with
      | Some heap -> ret (Val Unit) heap
      | None -> stuck "free of dangling #%d" l)
  | Free (Val v) -> stuck "free of non-location %a" pp_value v
  | Free e -> descend (fun e -> Free e) e
  | Cas (Val (Int l), (Val _ as e1), (Val _ as e2)) when l >= 0 ->
      step ?sched { cfg with expr = Cas (Val (Loc l), e1, e2) }
  | Cas (Val (Loc l), Val expected, Val desired) -> (
      match Heap.lookup heap l with
      | None -> stuck "CAS on dangling #%d" l
      | Some current ->
          if value_equal current expected then
            match Heap.store heap l desired with
            | Some heap -> ret (Val (Bool true)) heap
            | None -> stuck "CAS store failed on #%d" l
          else ret (Val (Bool false)) heap)
  | Cas ((Val _ as l), (Val _ as e1), e2) ->
      descend (fun e2 -> Cas (l, e1, e2)) e2
  | Cas ((Val _ as l), e1, e2) -> descend (fun e1 -> Cas (l, e1, e2)) e1
  | Cas (l, e1, e2) -> descend (fun l -> Cas (l, e1, e2)) l
  | Faa (Val (Int l), (Val (Int _) as d)) when l >= 0 ->
      step ?sched { cfg with expr = Faa (Val (Loc l), d) }
  | Faa (Val (Loc l), Val (Int d)) -> (
      match Heap.lookup heap l with
      | Some (Int old) -> (
          match eval_bin_op Add (Int old) (Int d) with
          | Error _ -> Stuck overflow_msg
          | Ok sum -> (
              match Heap.store heap l sum with
              | Some heap -> ret (Val (Int old)) heap
              | None -> stuck "FAA store failed on #%d" l))
      | Some v -> stuck "FAA on non-integer %a" pp_value v
      | None -> stuck "FAA on dangling #%d" l)
  | Faa ((Val _ as l), e) -> descend (fun e -> Faa (l, e)) e
  | Faa (l, e) -> descend (fun l -> Faa (l, e)) l
  | Assert (Val (Bool true)) -> ret (Val Unit) heap
  | Assert (Val (Int n)) when n <> 0 -> ret (Val Unit) heap
  | Assert (Val v) -> stuck "assertion failure (%a)" pp_value v
  | Assert e -> descend (fun e -> Assert e) e
  | GhostMark _ -> ret (Val Unit) heap
  | Par (Val _, Val _) -> ret (Val Unit) heap
  | Par (e1, e2) ->
      (* Fork-join: when both branches can still run, the scheduler
         picks the one to step; left-first without a scheduler. *)
      let go_left =
        if is_val e1 then false
        else if is_val e2 then true
        else
          match sched with Some s -> Sched.pick s 2 = 0 | None -> true
      in
      if go_left then descend (fun e1 -> Par (e1, e2)) e1
      else descend (fun e2 -> Par (e1, e2)) e2
  | Atomic (Val v) -> ret (Val v) heap
  | Atomic e ->
      (* The body runs to a value within this one machine step: no
         sibling thread is scheduled while it executes. *)
      let rec go n c =
        if n <= 0 then stuck "atomic section exceeded its step budget"
        else
          match step ?sched c with
          | Done (v, h) -> ret (Val v) h
          | Next c -> go (n - 1) c
          | Stuck m -> Stuck m
      in
      go atomic_fuel { expr = e; heap }

type run_result = Value of value * Heap.t | Error of string | Timeout

(** Run to a value with a step budget, from a given initial heap.
    [seed] enables the interleaving scheduler. *)
let run_from ?(fuel = 1_000_000) ?seed (heap : Heap.t) (e : expr) :
    run_result =
  let sched = Option.map (fun seed -> Sched.create ~seed) seed in
  let rec go fuel cfg =
    if fuel <= 0 then Timeout
    else
      match step ?sched cfg with
      | Done (v, h) -> Value (v, h)
      | Next cfg -> go (fuel - 1) cfg
      | Stuck m -> Error m
  in
  go fuel { expr = e; heap }

(** Run to a value with a step budget. *)
let run ?(fuel = 1_000_000) ?seed (e : expr) : run_result =
  run_from ~fuel ?seed Heap.empty e
