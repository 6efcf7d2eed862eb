(** A finite-model semantics for the destabilized logic.

    The paper's artifact proves soundness in Coq; our executable
    analogue interprets assertions in small concrete models, and
    [test/test_baselogic.ml] checks every kernel rule in all of them.

    The semantic domain is a triple (step index, global heap σ, local
    resource a):

    - σ is the *authoritative* program heap (what the machine runs on);
    - a is the locally-owned resource, an element of the camera {!Res}:
      a finite map of fractional, agreeing heap cells that must agree
      with σ, times the registry's ghost map;
    - all connectives are monotone in a (Iris-style upward closure),
      but *stability* — insensitivity to changes of σ outside a's
      footprint — is a separate property that heap-dependent pure
      assertions deliberately lack. [Stabilize] quantifies over the
      compatible globals, which is what makes ⌊P⌋ stable by
      construction.

    Every resource law (composition, validity, core, inclusion) is the
    one of {!Camera}. This module adds only the evaluator's enumeration
    strategy — the splits tried for [∗], the finite universes of
    {!model} — and the evaluation of symbolic ghost values; the
    [ghost-val camera-*] QCheck properties in [test/test_baselogic.ml]
    tie each {!Ghost_val} function to these cameras.

    Quantifiers, wands, updates and WP quantify over the finite
    universes supplied in {!model}; the evaluator is sound and complete
    *for those universes*, which is exactly what model-checking rule
    soundness needs. *)

open Stdx

(* Share the map module with the physical heap so conversions are
   type-transparent. *)
module Imap = Heaplang.Heap.Imap

(* ------------------------------------------------------------------ *)
(* Concrete resources, built from the cameras of {!Camera} *)

module Int_elt = struct
  type t = int

  let pp = Fmt.int
  let equal = Int.equal
  let compare = Int.compare
end

module Agree_int = Camera.Agree.Make (Int_elt)
module Excl_int = Camera.Excl.Make (Int_elt)

module Token = Camera.Excl.Make (struct
  type t = unit

  let pp ppf () = Fmt.string ppf "tok"
  let equal () () = true
end)

module Auth_nat = Camera.Auth.Make (Camera.Nat_add)

(** The local heap: each location holds a fraction of a value that
    every owner agrees on. *)
module Heap =
  Camera.Gmap.Make
    (struct
      include Imap

      let pp_key = Fmt.int
    end)
    (Camera.Prod.Make (Camera.Frac) (Agree_int))

module Packed = Camera.Registry.Packed
module Ghost = Camera.Registry.Ghost_map

(** A local resource: a heap fragment and the ghost state. *)
module Res = Camera.Prod.MakeUnital (Heap) (Ghost)

type res = Res.t

(* One registration per {!Ghost_val} shape. *)
module Reg_excl = Camera.Registry.Register (struct
  include Excl_int

  let name = "excl"
end) ()

module Reg_agree = Camera.Registry.Register (struct
  include Agree_int

  let name = "ag"
end) ()

module Reg_frac = Camera.Registry.Register (struct
  include Camera.Frac

  let name = "frac"
end) ()

module Reg_auth = Camera.Registry.Register (struct
  include Auth_nat

  let name = "auth"
end) ()

module Reg_max = Camera.Registry.Register (struct
  include Camera.Max_nat

  let name = "maxnat"
end) ()

module Reg_token = Camera.Registry.Register (struct
  include Token

  let name = "tok"
end) ()

(** [r ⋅ f] for valid [r] and [f], when that composite is valid. *)
let compose ((h1, g1) : res) ((h2, g2) : res) : res option =
  match Heap.op_if_valid h1 h2 with
  | None -> None
  | Some h -> Option.map (fun g -> (h, g)) (Ghost.op_if_valid g1 g2)

(** Does fragment [r] agree with global heap [sigma]? *)
let compat (sigma : int Imap.t) ((heap, _) : res) : bool =
  Imap.for_all
    (fun l (_, ag) ->
      match (Imap.find_opt l sigma, Agree_int.value ag) with
      | Some w, Some v -> w = v
      | _ -> false)
    heap

(* ------------------------------------------------------------------ *)
(* Splitting (for Sep) *)

let rec heap_splits cells : (Heap.t * Heap.t) list =
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

(* A persistent element splits into two copies of itself, a fraction
   into halves, and an authoritative counter into small contributions
   with the authoritative part on either side. *)
let cell_splits (p : Packed.t) =
  let whole = [ (Some p, None); (None, Some p) ] in
  match (Reg_frac.project p, Reg_auth.project p) with
  | Some q, _ ->
      let h = Some (Reg_frac.inject (Q.mul q Q.half)) in
      (h, h) :: whole
  | None, Some a ->
      let m = a.frag in
      whole
      @ List.concat_map
          (fun m1 ->
            let part m = Some (Reg_auth.inject (Auth_nat.frag m)) in
            let with_auth m = Some (Reg_auth.inject { a with frag = m }) in
            [ (with_auth m1, part (m - m1)); (part m1, with_auth (m - m1)) ])
          (Listx.range 0 (min m 4 + 1))
  | None, None -> (
      match Packed.pcore p with
      | Some c when Packed.equal c p -> (Some p, Some p) :: whole
      | _ -> whole)

let rec ghost_splits cells : (Ghost.t * Ghost.t) list =
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
        (cell_splits cv)

let res_splits ((heap, ghost) : res) : (res * res) list =
  let hs = heap_splits (Imap.bindings heap) in
  let gs = ghost_splits (Smap.bindings ghost) in
  List.concat_map
    (fun (h1, h2) -> List.map (fun (g1, g2) -> ((h1, g1), (h2, g2))) gs)
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

(** The camera element a symbolic ghost value denotes under [env] and
    [sigma], or [None] when a term does not evaluate. *)
let eval_ghost_val env sigma (v : Ghost_val.t) : Packed.t option =
  let ev = eval_term env sigma in
  match v with
  | Ghost_val.Excl t -> Option.map (fun n -> Reg_excl.inject (Excl n)) (ev t)
  | Ghost_val.Agree t ->
      Option.map (fun n -> Reg_agree.inject (Agree_int.of_elt n)) (ev t)
  | Ghost_val.Frac_tok q -> Some (Reg_frac.inject q)
  | Ghost_val.Auth_nat { auth; frag } -> (
      match (auth, ev frag) with
      | None, Some m -> Some (Reg_auth.inject (Auth_nat.frag m))
      | Some a, Some m ->
          Option.map (fun n -> Reg_auth.inject (Auth_nat.both n m)) (ev a)
      | _, None -> None)
  | Ghost_val.Max_nat t -> Option.map Reg_max.inject (ev t)
  | Ghost_val.Token -> Some (Reg_token.inject (Excl ()))

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
      | Some l, Some v ->
          Heap.included (Imap.singleton l (frac, Agree_int.of_elt v)) (fst r)
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
      | Some cv -> Ghost.included (Smap.singleton g cv) (snd r))
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
              match compose r rf with
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
  | Assertion.Persistently p ->
      (* The resource camera is unital, so its core is total. *)
      let core = Option.value (Res.pcore r) ~default:Res.unit in
      continue env ~step sigma core p
  | Assertion.Later p -> step = 0 || continue env ~step:(step - 1) sigma r p
  | Assertion.Upd p ->
      (* For every compatible frame there is an updated local resource
         validly composing with it and satisfying P. *)
      List.for_all
        (fun rf ->
          match compose r rf with
          | Some rc when compat sigma rc ->
              List.exists
                (fun r' ->
                  match compose r' rf with
                  | Some rc' ->
                      compat sigma rc' && continue env ~step sigma r' p
                  | None -> false)
                m.resources
          | _ -> true)
        m.resources
  | Assertion.Stabilize p ->
      (* ⌊P⌋: P holds under every global (from the universe, plus the
         current one) that agrees with our footprint. *)
      List.for_all
        (fun sigma' -> (not (compat sigma' r)) || continue env ~step sigma' r p)
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
          match compose r rf with
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
                    match compose r' rf with
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
