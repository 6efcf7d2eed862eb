(** A big-step, environment-based interpreter.

    Much faster than iterating {!Step.step} (no substitution traffic);
    the test suite checks it agrees with the small-step semantics on
    randomly generated programs. Uses its own closure representation
    internally and converts at the boundary. *)

open Ast

exception Runtime_error of string

let error fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

type state = { mutable heap : value Stdx.Smap.t; mutable next : int }
(* Keys are printed locations; a mutable map keeps the interpreter
   simple while remaining observationally equivalent to {!Heap}. *)

let key l = string_of_int l

let create_state () = { heap = Stdx.Smap.empty; next = 0 }

(* Conversions to/from the persistent {!Heap}: a [par] node is handed
   to the small-step machine (the only semantics that can interleave),
   which runs it on the shared heap and hands the result back. *)
let to_heap (st : state) : Heap.t =
  {
    Heap.cells =
      Stdx.Smap.fold
        (fun k v m -> Heap.Imap.add (int_of_string k) v m)
        st.heap Heap.Imap.empty;
    next = st.next;
  }

let of_heap (st : state) (h : Heap.t) : unit =
  st.heap <-
    List.fold_left
      (fun m (l, v) -> Stdx.Smap.add (key l) v m)
      Stdx.Smap.empty (Heap.bindings h);
  st.next <- h.Heap.next

type env = (string * value) list

let rec eval ?sched (st : state) (env : env) (e : expr) ~fuel : value =
  if !fuel <= 0 then error "out of fuel";
  decr fuel;
  let ev = eval ?sched st ~fuel in
  let as_loc = function Loc l -> Some l | Int l when l >= 0 -> Some l | _ -> None in
  match e with
  | Val v -> v
  | Var x -> (
      match List.assoc_opt x env with
      | Some v -> v
      | None -> error "unbound variable %s" x)
  | Rec (f, x, body) ->
      (* Close over the environment by substituting it away, keeping
         the substitution-based value representation. *)
      let body' =
        List.fold_left
          (fun b (y, v) ->
            if Some y = f || String.equal y x then b else Subst.subst y v b)
          body env
      in
      RecV (f, x, body')
  | App (ef, ea) -> (
      let fv = ev env ef in
      let av = ev env ea in
      match fv with
      | RecV (f, x, body) ->
          let env' = (x, av) :: (match f with Some f -> [ (f, fv) ] | None -> []) in
          eval ?sched st env' body ~fuel
      | v -> error "applied non-function %a" pp_value v)
  | UnOp (op, e1) -> (
      let v = ev env e1 in
      match Step.eval_un_op op v with
      | Ok v -> v
      | Error Step.Overflow -> error "%s" Step.overflow_msg
      | Error Step.Bad_operands -> error "bad unary operand %a" pp_value v)
  | BinOp (op, e1, e2) -> (
      let v1 = ev env e1 in
      let v2 = ev env e2 in
      match Step.eval_bin_op op v1 v2 with
      | Ok v -> v
      | Error Step.Overflow -> error "%s" Step.overflow_msg
      | Error Step.Bad_operands -> error "bad binary operands")
  | If (c, a, b) -> (
      match ev env c with
      | Bool true -> ev env a
      | Bool false -> ev env b
      | Int n -> if n <> 0 then ev env a else ev env b
      | v -> error "if on non-boolean %a" pp_value v)
  | Let (x, e1, e2) ->
      let v = ev env e1 in
      eval ?sched st ((x, v) :: env) e2 ~fuel
  | Seq (a, b) ->
      ignore (ev env a);
      ev env b
  | While (c, body) -> (
      let truthy =
        match ev env c with
        | Bool b -> b
        | Int n -> n <> 0
        | v -> error "while on non-boolean %a" pp_value v
      in
      if truthy then begin
        ignore (ev env body);
        eval ?sched st env (While (c, body)) ~fuel
      end
      else Unit)
  | PairE (a, b) ->
      let va = ev env a in
      let vb = ev env b in
      Pair (va, vb)
  | Fst e1 -> (
      match ev env e1 with Pair (a, _) -> a | v -> error "fst of %a" pp_value v)
  | Snd e1 -> (
      match ev env e1 with Pair (_, b) -> b | v -> error "snd of %a" pp_value v)
  | InjLE e1 -> InjL (ev env e1)
  | InjRE e1 -> InjR (ev env e1)
  | Case (e1, (x, l), (y, r)) -> (
      match ev env e1 with
      | InjL v -> eval ?sched st ((x, v) :: env) l ~fuel
      | InjR v -> eval ?sched st ((y, v) :: env) r ~fuel
      | v -> error "case on %a" pp_value v)
  | Alloc e1 ->
      let v = ev env e1 in
      let l = st.next in
      st.next <- l + 1;
      st.heap <- Stdx.Smap.add (key l) v st.heap;
      Loc l
  | Load e1 -> (
      match as_loc (ev env e1) with
      | Some l -> (
          match Stdx.Smap.find_opt (key l) st.heap with
          | Some v -> v
          | None -> error "load from dangling #%d" l)
      | None -> error "load from non-location")
  | Store (e1, e2) -> (
      match as_loc (ev env e1) with
      | Some l ->
          let v = ev env e2 in
          if Stdx.Smap.mem (key l) st.heap then begin
            st.heap <- Stdx.Smap.add (key l) v st.heap;
            Unit
          end
          else error "store to dangling #%d" l
      | None -> error "store to non-location")
  | Free e1 -> (
      match as_loc (ev env e1) with
      | Some l ->
          if Stdx.Smap.mem (key l) st.heap then begin
            st.heap <- Stdx.Smap.remove (key l) st.heap;
            Unit
          end
          else error "free of dangling #%d" l
      | None -> error "free of non-location")
  | Cas (e1, e2, e3) -> (
      match as_loc (ev env e1) with
      | Some l -> (
          let expected = ev env e2 in
          let desired = ev env e3 in
          match Stdx.Smap.find_opt (key l) st.heap with
          | None -> error "CAS on dangling #%d" l
          | Some current ->
              if value_equal current expected then begin
                st.heap <- Stdx.Smap.add (key l) desired st.heap;
                Bool true
              end
              else Bool false)
      | None -> error "CAS on non-location")
  | Faa (e1, e2) -> (
      match as_loc (ev env e1) with
      | Some l -> (
          let d =
            match ev env e2 with
            | Int d -> d
            | v -> error "FAA delta %a" pp_value v
          in
          match Stdx.Smap.find_opt (key l) st.heap with
          | Some (Int old) -> (
              match Step.eval_bin_op Add (Int old) (Int d) with
              | Ok sum ->
                  st.heap <- Stdx.Smap.add (key l) sum st.heap;
                  Int old
              | Error _ -> error "%s" Step.overflow_msg)
          | Some v -> error "FAA on non-integer %a" pp_value v
          | None -> error "FAA on dangling #%d" l)
      | None -> error "FAA on non-location")
  | GhostMark _ -> Unit
  | Assert e1 -> (
      match ev env e1 with
      | Bool true -> Unit
      | Int n when n <> 0 -> Unit
      | v -> error "assertion failure (%a)" pp_value v)
  | Atomic e1 ->
      (* In a big-step (single-thread) context there is nothing to be
         atomic against; inside a [par] the small-step machine below
         owns the whole subtree and enforces indivisibility itself. *)
      ev env e1
  | Par (_, _) ->
      (* Only the small-step machine can interleave: close the node
         over the environment, hand it the shared heap, and charge the
         steps it takes against our own fuel. The scheduler stream is
         shared, so a program with several [par] sections draws its
         choices from one seeded sequence. *)
      let closed =
        List.fold_left (fun e' (x, v) -> Subst.subst x v e') e env
      in
      let rec go c =
        if !fuel <= 0 then error "out of fuel"
        else begin
          decr fuel;
          match Step.step ?sched c with
          | Step.Done (v, h) -> (v, h)
          | Step.Next c -> go c
          | Step.Stuck m -> error "%s" m
        end
      in
      let v, h = go { Step.expr = closed; heap = to_heap st } in
      of_heap st h;
      v

type result = Value of value | Error of string | Timeout

let run ?(fuel = 10_000_000) ?seed (e : expr) : result =
  let st = create_state () in
  let fuel = ref fuel in
  let sched = Option.map (fun seed -> Step.Sched.create ~seed) seed in
  match eval ?sched st [] e ~fuel with
  | v -> Value v
  | exception Runtime_error "out of fuel" -> Timeout
  | exception Runtime_error m -> Error m
