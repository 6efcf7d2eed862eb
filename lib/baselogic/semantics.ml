(** A finite-model semantics for the destabilized logic.

    The paper's artifact proves soundness in Coq; our executable
    analogue interprets assertions in small concrete models and lets
    QCheck search for counterexamples to every kernel rule.

    The semantic domain is a triple (step index, global heap σ, local
    resource a):

    - σ is the *authoritative* program heap (what the machine runs on);
    - a is the locally-owned fragment: a fractional heap fragment that
      must agree with σ, plus concrete ghost state;
    - all connectives are monotone in a (Iris-style upward closure),
      but *stability* — insensitivity to changes of σ outside a's
      footprint — is a separate property that heap-dependent pure
      assertions deliberately lack. [Stabilize] quantifies over the
      compatible globals, which is what makes ⌊P⌋ stable by
      construction.

    Quantifiers, wands, updates and WP quantify over the finite
    universes supplied in {!model}; the evaluator is sound and complete
    *for those universes*, which is exactly what model-checking rule
    soundness needs. *)

open Stdx

(* Share the map module with the physical heap so conversions are
   type-transparent. *)
module Imap = Heaplang.Heap.Imap

(* ------------------------------------------------------------------ *)
(* Concrete resources *)

(** Concrete ghost-camera elements — {!Ghost_val} with the terms
    evaluated. *)
type cval =
  | CExcl of int
  | CAgree of int
  | CFrac of Q.t
  | CAuthNat of int option * int
  | CMaxNat of int
  | CToken

type res = { rheap : (Q.t * int) Imap.t; rghost : cval Smap.t }

let cval_op (a : cval) (b : cval) : cval option =
  match (a, b) with
  | CExcl _, CExcl _ | CToken, CToken -> None
  | CAgree x, CAgree y -> if x = y then Some (CAgree x) else None
  | CFrac p, CFrac q ->
      let s = Q.add p q in
      if Q.leq s Q.one then Some (CFrac s) else None
  | CAuthNat (Some _, _), CAuthNat (Some _, _) -> None
  | CAuthNat (auth, m1), CAuthNat (None, m2)
  | CAuthNat (None, m1), CAuthNat (auth, m2) ->
      let m = m1 + m2 in
      (match auth with
      | Some n when m > n -> None
      | _ -> Some (CAuthNat (auth, m)))
  | CMaxNat x, CMaxNat y -> Some (CMaxNat (max x y))
  | _ -> None

let cval_valid = function
  | CExcl _ | CAgree _ | CToken -> true
  | CFrac q -> Q.gt q Q.zero && Q.leq q Q.one
  | CAuthNat (Some n, m) -> 0 <= m && m <= n
  | CAuthNat (None, m) -> 0 <= m
  | CMaxNat n -> n >= 0

let cval_core = function
  | CAgree x -> Some (CAgree x)
  | CMaxNat x -> Some (CMaxNat x)
  | CAuthNat (_, _) -> Some (CAuthNat (None, 0))
  | CExcl _ | CFrac _ | CToken -> None

let cval_incl (a : cval) (b : cval) : bool =
  match (a, b) with
  | CAgree x, CAgree y -> x = y
  | CMaxNat x, CMaxNat y -> x <= y
  | CFrac p, CFrac q -> Q.leq p q
  | CAuthNat (None, m1), CAuthNat (_, m2) -> m1 <= m2
  | CAuthNat (Some n1, m1), CAuthNat (Some n2, m2) -> n1 = n2 && m1 <= m2
  | CExcl x, CExcl y -> x = y
  | CToken, CToken -> true
  | _ -> false

(** Resource composition; [None] marks invalid composites. *)
let res_op (a : res) (b : res) : res option =
  let heap =
    Imap.merge
      (fun _ x y ->
        match (x, y) with
        | None, z | z, None -> Option.map Result.ok z
        | Some (q1, v1), Some (q2, v2) ->
            let q = Q.add q1 q2 in
            if v1 = v2 && Q.leq q Q.one then Some (Ok (q, v1))
            else Some (Error ()))
      a.rheap b.rheap
  in
  let ghost =
    Smap.merge
      (fun _ x y ->
        match (x, y) with
        | None, z | z, None -> Option.map Result.ok z
        | Some x, Some y -> (
            match cval_op x y with
            | Some z when cval_valid z -> Some (Ok z)
            | _ -> Some (Error ())))
      a.rghost b.rghost
  in
  let ok_heap = Imap.for_all (fun _ v -> Result.is_ok v) heap in
  let ok_ghost = Smap.for_all (fun _ v -> Result.is_ok v) ghost in
  if ok_heap && ok_ghost then
    Some
      {
        rheap = Imap.map Result.get_ok heap;
        rghost = Smap.map Result.get_ok ghost;
      }
  else None

let res_core (r : res) : res =
  { rheap = Imap.empty; rghost = Smap.filter_map (fun _ v -> cval_core v) r.rghost }

(** Does fragment [r] agree with global heap [sigma]? *)
let compat (sigma : int Imap.t) (r : res) : bool =
  Imap.for_all
    (fun l (_, v) -> match Imap.find_opt l sigma with
      | Some w -> v = w
      | None -> false)
    r.rheap

(* ------------------------------------------------------------------ *)
(* Splitting (for Sep) *)

let rec heap_splits (cells : (int * (Q.t * int)) list) :
    ((Q.t * int) Imap.t * (Q.t * int) Imap.t) list =
  match cells with
  | [] -> [ (Imap.empty, Imap.empty) ]
  | (l, (q, v)) :: rest ->
      let rests = heap_splits rest in
      let options =
        [ (Some (q, v), None); (None, Some (q, v)) ]
        @
        if Q.gt q Q.half || Q.equal q Q.one then
          let h = Q.mul q Q.half in
          [ (Some (h, v), Some (h, v)) ]
        else []
      in
      List.concat_map
        (fun (x, y) ->
          List.map
            (fun (h1, h2) ->
              ( (match x with Some c -> Imap.add l c h1 | None -> h1),
                match y with Some c -> Imap.add l c h2 | None -> h2 ))
            rests)
        options

let cval_splits (cv : cval) : (cval option * cval option) list =
  let whole = [ (Some cv, None); (None, Some cv) ] in
  match cv with
  | CAgree _ | CMaxNat _ -> (Some cv, Some cv) :: whole
  | CFrac q ->
      let h = Q.mul q Q.half in
      (Some (CFrac h), Some (CFrac h)) :: whole
  | CAuthNat (auth, m) ->
      whole
      @ List.concat_map
          (fun m1 ->
            let m2 = m - m1 in
            [
              (Some (CAuthNat (auth, m1)), Some (CAuthNat (None, m2)));
              (Some (CAuthNat (None, m1)), Some (CAuthNat (auth, m2)));
            ])
          (Listx.range 0 (min m 4 + 1))
  | CExcl _ | CToken -> whole

let rec ghost_splits (cells : (string * cval) list) :
    (cval Smap.t * cval Smap.t) list =
  match cells with
  | [] -> [ (Smap.empty, Smap.empty) ]
  | (g, cv) :: rest ->
      let rests = ghost_splits rest in
      List.concat_map
        (fun (x, y) ->
          List.map
            (fun (m1, m2) ->
              ( (match x with Some c -> Smap.add g c m1 | None -> m1),
                match y with Some c -> Smap.add g c m2 | None -> m2 ))
            rests)
        (cval_splits cv)

let res_splits (r : res) : (res * res) list =
  let hs = heap_splits (Imap.bindings r.rheap) in
  let gs = ghost_splits (Smap.bindings r.rghost) in
  List.concat_map
    (fun (h1, h2) ->
      List.map
        (fun (g1, g2) ->
          ({ rheap = h1; rghost = g1 }, { rheap = h2; rghost = g2 }))
        gs)
    hs

(* ------------------------------------------------------------------ *)
(* Ghost values: symbolic → concrete *)

let eval_term env sigma (t : Smt.Term.t) : int option =
  let on_app f args =
    match (f, args) with
    | s, [ l ] when String.equal s Hterm.deref_symbol -> Imap.find_opt l sigma
    | _ -> None
  in
  Smt.Term.eval ~env ~on_app t

let eval_ghost_val env sigma (v : Ghost_val.t) : cval option =
  let ev = eval_term env sigma in
  match v with
  | Ghost_val.Excl t -> Option.map (fun n -> CExcl n) (ev t)
  | Ghost_val.Agree t -> Option.map (fun n -> CAgree n) (ev t)
  | Ghost_val.Frac_tok q -> Some (CFrac q)
  | Ghost_val.Auth_nat { auth; frag } -> (
      match (auth, ev frag) with
      | None, Some m -> Some (CAuthNat (None, m))
      | Some a, Some m ->
          Option.map (fun n -> CAuthNat (Some n, m)) (ev a)
      | _, None -> None)
  | Ghost_val.Max_nat t -> Option.map (fun n -> CMaxNat n) (ev t)
  | Ghost_val.Token -> Some CToken

(* ------------------------------------------------------------------ *)
(* The evaluator *)

type model = {
  ints : int list;  (** range for quantifiers *)
  resources : res list;  (** universe for wand / update / WP frames *)
  globals : int Imap.t list;  (** universe for [Stabilize] *)
}

let value_as_int : Heaplang.Ast.value -> int option = function
  | Heaplang.Ast.Unit -> Some 0
  | Heaplang.Ast.Bool b -> Some (if b then 1 else 0)
  | Heaplang.Ast.Int n -> Some n
  | Heaplang.Ast.Loc l -> Some l
  | _ -> None

let heap_of_sigma (sigma : int Imap.t) : Heaplang.Heap.t =
  let cells = Imap.map (fun v -> Heaplang.Ast.Int v) sigma in
  let next =
    match Imap.max_binding_opt sigma with Some (l, _) -> l + 1 | None -> 0
  in
  { Heaplang.Heap.cells; next }

let sigma_of_heap (h : Heaplang.Heap.t) : int Imap.t option =
  let ok = ref true in
  let m =
    Imap.filter_map
      (fun _ v ->
        match value_as_int v with
        | Some n -> Some n
        | None ->
            ok := false;
            None)
      h.Heaplang.Heap.cells
  in
  if !ok then Some m else None

let rec eval (m : model) (penv : Assertion.pred_env) (env : int Smap.t)
    ~(step : int) (sigma : int Imap.t) (r : res) (a : Assertion.t) : bool =
  let ev_t = eval_term env sigma in
  let continue = eval m penv in
  match a with
  | Assertion.Pure t -> (
      match Smt.Term.eval_bool ~env
              ~on_app:(fun f args ->
                match (f, args) with
                | s, [ l ] when String.equal s Hterm.deref_symbol ->
                    Imap.find_opt l sigma
                | _ -> None)
              t
      with
      | Some b -> b
      | None -> false)
  | Assertion.Emp -> true  (* upward-closed: unit is included in anything *)
  | Assertion.Points_to { loc; frac; value } -> (
      match (ev_t loc, ev_t value) with
      | Some l, Some v -> (
          match Imap.find_opt l r.rheap with
          | Some (q, v') -> v = v' && Q.leq frac q
          | None -> false)
      | _ -> false)
  | Assertion.Pred (p, args) -> (
      match Smap.find_opt p penv with
      | None -> false
      | Some def ->
          (* Guarded unfolding: each unfold consumes a step. *)
          step > 0
          && List.length args = List.length def.Assertion.params
          &&
          let vals = List.map ev_t args in
          List.for_all Option.is_some vals
          &&
          let binds =
            List.map2
              (fun x v -> (x, Smt.Term.int (Option.get v)))
              def.Assertion.params vals
          in
          continue env ~step:(step - 1) sigma r
            (Assertion.subst (Smap.of_list binds) def.Assertion.body))
  | Assertion.Ghost (g, gv) -> (
      match eval_ghost_val env sigma gv with
      | None -> false
      | Some cv -> (
          match Smap.find_opt g r.rghost with
          | Some cv' -> cval_incl cv cv'
          | None -> false))
  | Assertion.Sep (p, q) ->
      List.exists
        (fun (r1, r2) ->
          continue env ~step sigma r1 p && continue env ~step sigma r2 q)
        (res_splits r)
  | Assertion.Wand (p, q) ->
      (* Stable wands: quantify over both the frame and the compatible
         globals, so a wand survives heap mutation and can be applied
         at the post-state — this is where the destabilized logic pays
         with the stability side condition on [wand_intro]. *)
      List.for_all
        (fun sigma' ->
          List.for_all
            (fun rf ->
              match res_op r rf with
              | Some rc when compat sigma' rc ->
                  (not (continue env ~step sigma' rf p))
                  || continue env ~step sigma' rc q
              | _ -> true)
            m.resources)
        (sigma :: m.globals)
  | Assertion.And (p, q) ->
      continue env ~step sigma r p && continue env ~step sigma r q
  | Assertion.Or (p, q) ->
      continue env ~step sigma r p || continue env ~step sigma r q
  | Assertion.Exists (x, p) ->
      List.exists
        (fun n -> continue (Smap.add x n env) ~step sigma r p)
        m.ints
  | Assertion.Forall (x, p) ->
      List.for_all
        (fun n -> continue (Smap.add x n env) ~step sigma r p)
        m.ints
  | Assertion.Persistently p -> continue env ~step sigma (res_core r) p
  | Assertion.Later p -> step = 0 || continue env ~step:(step - 1) sigma r p
  | Assertion.Upd p ->
      (* For every compatible frame there is an updated local resource
         validly composing with it and satisfying P. *)
      List.for_all
        (fun rf ->
          match res_op r rf with
          | Some rc when compat sigma rc ->
              List.exists
                (fun r' ->
                  match res_op r' rf with
                  | Some rc' ->
                      compat sigma rc' && continue env ~step sigma r' p
                  | None -> false)
                m.resources
          | _ -> true)
        m.resources
  | Assertion.Stabilize p ->
      (* ⌊P⌋: P holds under every global (from the universe, plus the
         current one) that agrees with our footprint. *)
      let fp = Imap.bindings r.rheap in
      List.for_all
        (fun sigma' ->
          (not
             (List.for_all
                (fun (l, (_, v)) -> Imap.find_opt l sigma' = Some v)
                fp))
          || continue env ~step sigma' r p)
        (sigma :: m.globals)
  | Assertion.Wp (e, x, post) -> eval_wp m penv env ~step sigma r e x post

(** Weakest precondition, for a deterministic sequential machine:
    under any compatible frame *and any compatible initial global*
    (making WP stable by construction, as in Iris where the state
    interpretation is existentially framed), the program runs without
    getting stuck for [step] steps, and on termination the
    postcondition holds in an updated local resource that still
    composes with the frame against the final global heap. *)
and eval_wp m penv env ~step sigma0 r e x post =
  (* Close the program's symbolic values from the valuation. Integers
     double as booleans and addresses in the untyped machine, so the
     integer closure is faithful. *)
  let e =
    Heaplang.Subst.close_expr
      (Smap.bindings env |> List.map (fun (x, n) -> (x, Heaplang.Ast.Int n)))
      e
  in
  List.for_all
    (fun sigma ->
      List.for_all
        (fun rf ->
          match res_op r rf with
          | Some rc when compat sigma rc ->
          let rec run k (cfg : Heaplang.Step.cfg) =
            if k >= step then true  (* ran out of steps: vacuously fine *)
            else
              match Heaplang.Step.step cfg with
              | Heaplang.Step.Stuck _ -> false
              | Heaplang.Step.Done (v, h) -> finish (k + 1) v h
              | Heaplang.Step.Next cfg' -> (
                  match cfg'.Heaplang.Step.expr with
                  | Heaplang.Ast.Val v ->
                      finish (k + 1) v cfg'.Heaplang.Step.heap
                  | _ -> run (k + 1) cfg')
          and finish k v h =
            match (value_as_int v, sigma_of_heap h) with
            | Some n, Some sigma' ->
                List.exists
                  (fun r' ->
                    match res_op r' rf with
                    | Some rc' ->
                        compat sigma' rc'
                        && eval m penv env ~step:(step - k) sigma' r'
                             (Assertion.subst1 x (Smt.Term.int n) post)
                    | None -> false)
                  m.resources
            | _ -> false
          in
          run 0 { Heaplang.Step.expr = e; heap = heap_of_sigma sigma }
          | _ -> true)
        m.resources)
    (sigma0 :: m.globals)
