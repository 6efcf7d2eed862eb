(** The numeric abstract domain behind the abstract-interpretation
    pass: a reduced product of intervals and parity, evaluated through
    linear forms over hash-consed {!Smt.Term} atoms.

    The domain is deliberately non-relational: an environment maps
    *atoms* — maximal non-linear subterms (variables, uninterpreted
    applications, [ite]s, genuine products) — to interval×parity
    values, and every query first normalizes its term to a linear
    polynomial [Σ cᵢ·atomᵢ + k] over those atoms. Normalization rides
    on hash-consing: atoms are keyed by {!Smt.Term.compare} (the
    intern tag), so two structurally equal subterms always collapse
    into one coefficient. That is what lets an equality goal like
    [((v + s) + s) + s = v + 3·s] discharge by pure cancellation, with
    no solver involvement — the shape every corpus chain ends in.

    Soundness contract (see DESIGN.md §12): all arithmetic on
    constants and coefficients is overflow-checked; anything that
    cannot be represented exactly falls back to an opaque atom or an
    infinite bound, never to a wrong finite answer. Queries return
    three-valued verdicts ({!tv}); only [Yes] ("every concretization
    satisfies the formula") is ever allowed to short-circuit a solver
    verdict: this pass is the one producer of linear-identity [Valid]s
    in front of the verifier's solver session. *)

module T = Smt.Term

(** Three-valued truth: [Yes] = holds in every concretization, [No] =
    fails in every concretization, [Maybe] = the domain cannot tell. *)
type tv = Yes | No | Maybe

let tv_not = function Yes -> No | No -> Yes | Maybe -> Maybe

(* Coefficient arithmetic raises [C.Overflow] rather than wrapping. *)
module C = Stdx.Checked

(* ------------------------------------------------------------------ *)
(* Intervals *)

module Itv = struct
  type bound = Ninf | Fin of int | Pinf

  (** Invariant: [lo] is never [Pinf], [hi] is never [Ninf], and
      [lo <= hi]; the empty interval is not representable (operations
      that can empty return [option]). Finite bounds are kept within
      ±[big] so bound arithmetic cannot overflow native ints; bounds
      beyond that round *outward* (sound). *)
  type t = { lo : bound; hi : bound }

  let big = 1 lsl 60
  let top = { lo = Ninf; hi = Pinf }
  let norm_lo n = if n < -big then Ninf else if n > big then Fin big else Fin n
  let norm_hi n = if n > big then Pinf else if n < -big then Fin (-big) else Fin n
  let of_int n = { lo = norm_lo n; hi = norm_hi n }
  let is_top t = t.lo = Ninf && t.hi = Pinf

  let mem n { lo; hi } =
    (match lo with Ninf -> true | Fin l -> l <= n | Pinf -> false)
    && match hi with Pinf -> true | Fin h -> n <= h | Ninf -> false

  let add a b =
    {
      lo =
        (match (a.lo, b.lo) with
        | Ninf, _ | _, Ninf -> Ninf
        | Fin x, Fin y -> norm_lo (x + y)
        | Pinf, _ | _, Pinf -> assert false);
      hi =
        (match (a.hi, b.hi) with
        | Pinf, _ | _, Pinf -> Pinf
        | Fin x, Fin y -> norm_hi (x + y)
        | Ninf, _ | _, Ninf -> assert false);
    }

  (* Scaling by a (possibly huge) constant: overflow rounds outward. *)
  let scale c t =
    if c = 0 then of_int 0
    else
      let mul_b = function
        | Fin n -> ( try Fin (C.mul c n) with C.Overflow -> if (c > 0) = (n > 0) then Pinf else Ninf)
        | Ninf -> if c > 0 then Ninf else Pinf
        | Pinf -> if c > 0 then Pinf else Ninf
      in
      let x = mul_b t.lo and y = mul_b t.hi in
      let lo, hi = if c > 0 then (x, y) else (y, x) in
      {
        lo = (match lo with Fin n -> norm_lo n | b -> b);
        hi = (match hi with Fin n -> norm_hi n | b -> b);
      }

  let bmin a b =
    match (a, b) with
    | Ninf, _ | _, Ninf -> Ninf
    | Pinf, x | x, Pinf -> x
    | Fin x, Fin y -> Fin (min x y)

  let bmax a b =
    match (a, b) with
    | Pinf, _ | _, Pinf -> Pinf
    | Ninf, x | x, Ninf -> x
    | Fin x, Fin y -> Fin (max x y)

  let join a b = { lo = bmin a.lo b.lo; hi = bmax a.hi b.hi }

  let meet a b =
    let lo = bmax a.lo b.lo and hi = bmin a.hi b.hi in
    match (lo, hi) with
    | Fin l, Fin h when l > h -> None
    | Pinf, _ | _, Ninf -> None
    | _ -> Some { lo; hi }

  let bleq a b =
    match (a, b) with
    | Ninf, _ | _, Pinf -> true
    | _, Ninf | Pinf, _ -> false
    | Fin x, Fin y -> x <= y

  (** [leq a b] — a ⊆ b. *)
  let leq a b = bleq b.lo a.lo && bleq a.hi b.hi

  (** [widen old next] — standard interval widening: any bound that
      moved outward jumps to infinity. [next] is the join of the old
      state and the new contribution. *)
  let widen old next =
    {
      lo = (if bleq old.lo next.lo then old.lo else Ninf);
      hi = (if bleq next.hi old.hi then old.hi else Pinf);
    }

  (* Comparisons against zero, for linear-form verdicts. *)
  let is_nonpos t = bleq t.hi (Fin 0)
  let is_neg t = bleq t.hi (Fin (-1))
  let is_nonneg t = bleq (Fin 0) t.lo
  let is_pos t = bleq (Fin 1) t.lo
  let is_zero t = t.lo = Fin 0 && t.hi = Fin 0
  let excludes_zero t = is_pos t || is_neg t

  let pp ppf { lo; hi } =
    let pb inf ppf = function
      | Fin n -> Fmt.int ppf n
      | _ -> Fmt.string ppf inf
    in
    Fmt.pf ppf "[%a,%a]" (pb "-∞") lo (pb "+∞") hi
end

(* ------------------------------------------------------------------ *)
(* Parity *)

module Parity = struct
  type t = Even | Odd | Top

  let of_int n = if n land 1 = 0 then Even else Odd

  let add a b =
    match (a, b) with
    | Even, x | x, Even -> x
    | Odd, Odd -> Even
    | Top, _ | _, Top -> Top

  (** Parity of [c·x] given the parity of [x]. *)
  let scale c p = if c land 1 = 0 then Even else p

  let join a b = if a = b then a else Top
  let leq a b = b = Top || a = b
  let meet a b = if a = b then Some a else match (a, b) with
    | Top, x | x, Top -> Some x
    | _ -> None

  let mem n = function
    | Top -> true
    | Even -> n land 1 = 0
    | Odd -> n land 1 = 1

  let pp ppf p =
    Fmt.string ppf (match p with Even -> "even" | Odd -> "odd" | Top -> "⊤")
end

(* ------------------------------------------------------------------ *)
(* The reduced product *)

module Val = struct
  type t = { itv : Itv.t; par : Parity.t }

  let top = { itv = Itv.top; par = Parity.Top }
  let of_int n = { itv = Itv.of_int n; par = Parity.of_int n }
  let is_top v = Itv.is_top v.itv && v.par = Parity.Top
  let mem n v = Itv.mem n v.itv && Parity.mem n v.par
  let add a b = { itv = Itv.add a.itv b.itv; par = Parity.add a.par b.par }
  let scale c v = { itv = Itv.scale c v.itv; par = Parity.scale c v.par }
  let join a b = { itv = Itv.join a.itv b.itv; par = Parity.join a.par b.par }
  let leq a b = Itv.leq a.itv b.itv && Parity.leq a.par b.par

  let widen old next =
    { itv = Itv.widen old.itv next.itv; par = Parity.join old.par next.par }

  (* The reduction step: a finite bound whose parity is impossible
     tightens inward by one; a singleton fixes the parity or empties
     the product. One bump per bound suffices — two consecutive
     integers cover both parities. *)
  let reduce v =
    match v.par with
    | Parity.Top -> Some v
    | p ->
        let lo =
          match v.itv.Itv.lo with
          | Itv.Fin n when not (Parity.mem n p) -> Itv.Fin (n + 1)
          | b -> b
        in
        let hi =
          match v.itv.Itv.hi with
          | Itv.Fin n when not (Parity.mem n p) -> Itv.Fin (n - 1)
          | b -> b
        in
        (match (lo, hi) with
        | Itv.Fin l, Itv.Fin h when l > h -> None
        | _ -> Some { v with itv = { Itv.lo; hi } })

  let meet a b =
    match (Itv.meet a.itv b.itv, Parity.meet a.par b.par) with
    | Some itv, Some par -> reduce { itv; par }
    | _ -> None

  let pp ppf v =
    if v.par = Parity.Top then Itv.pp ppf v.itv
    else Fmt.pf ppf "%a %a" Itv.pp v.itv Parity.pp v.par
end

(* ------------------------------------------------------------------ *)
(* Linear forms over term atoms *)

module Tmap = Map.Make (struct
  type t = T.t

  let compare = T.compare
end)

(** [Σ cᵢ·atomᵢ + const] with non-zero coefficients, atoms sorted by
    intern tag. An atom is any int-sorted term the normalizer keeps
    opaque: variables, applications, [ite]s, non-constant products. *)
type lin = { const : int; coeffs : (T.t * int) list }

let lin_atom t = { const = 0; coeffs = [ (t, 1) ] }
let lin_const n = { const = n; coeffs = [] }

let lin_add a b =
  let rec merge xs ys =
    match (xs, ys) with
    | [], zs | zs, [] -> zs
    | (x, cx) :: xs', (y, cy) :: ys' ->
        let c = T.compare x y in
        if c < 0 then (x, cx) :: merge xs' ys
        else if c > 0 then (y, cy) :: merge xs ys'
        else
          let s = C.add cx cy in
          if s = 0 then merge xs' ys' else (x, s) :: merge xs' ys'
  in
  { const = C.add a.const b.const; coeffs = merge a.coeffs b.coeffs }

let lin_scale c l =
  if c = 0 then lin_const 0
  else
    {
      const = C.mul c l.const;
      coeffs = List.map (fun (t, k) -> (t, C.mul c k)) l.coeffs;
    }

(** Normalize an int-sorted term to a linear form. Total: overflow
    anywhere collapses the offending subterm (ultimately the whole
    term) into a single opaque atom, which is always sound. *)
let lin_of (t : T.t) : lin =
  let rec go t =
    match T.view t with
    | T.Int_lit n -> lin_const n
    | T.Add (a, b) -> lin_add (go a) (go b)
    | T.Sub (a, b) -> lin_add (go a) (lin_scale (-1) (go b))
    | T.Mul (a, b) -> (
        match (T.view a, T.view b) with
        | T.Int_lit c, _ -> lin_scale c (go b)
        | _, T.Int_lit c -> lin_scale c (go a)
        | _ -> lin_atom t)
    | _ -> lin_atom t
  in
  try go t with C.Overflow -> lin_atom t

let lin_sub a b = lin_add a (lin_scale (-1) b)

(* ------------------------------------------------------------------ *)
(* Environments *)

(** [Bot] is the unreachable state; [Env m] constrains the atoms in
    [m]'s domain (absent atom = ⊤). Top values are never stored. *)
type t = Bot | Env of Val.t Tmap.t

let top = Env Tmap.empty
let bot = Bot
let is_bot = function Bot -> true | Env _ -> false

let find m a = match Tmap.find_opt a m with Some v -> v | None -> Val.top

let set m a v =
  if Val.is_top v then Tmap.remove a m else Tmap.add a v m

(** Abstract value of an atom in the environment. *)
let val_of_atom env a =
  match env with Bot -> Val.of_int 0 | Env m -> find m a

(** Abstract value of a linear form. *)
let val_of_lin env l =
  List.fold_left
    (fun acc (a, c) -> Val.add acc (Val.scale c (val_of_atom env a)))
    (Val.of_int l.const) l.coeffs

(** Abstract value of an arbitrary int-sorted term. *)
let val_of env t = val_of_lin env (lin_of t)

(* ------------------------------------------------------------------ *)
(* Queries *)

let tv_and a b =
  match (a, b) with
  | No, _ | _, No -> No
  | Yes, Yes -> Yes
  | _ -> Maybe

let tv_or a b =
  match (a, b) with
  | Yes, _ | _, Yes -> Yes
  | No, No -> No
  | _ -> Maybe

(** Verdict of an (int-sorted) difference [l]: sign information of
    [Σ cᵢ·atomᵢ + k] under [env]. *)
let lin_cmp env l =
  if l.coeffs = [] then Some (Val.of_int l.const) else Some (val_of_lin env l)

(** [holds env φ] — three-valued truth of the boolean term [φ] in
    every concretization of [env]. [Bot] satisfies everything. *)
let rec holds env (phi : T.t) : tv =
  match env with
  | Bot -> Yes
  | Env _ -> (
      match T.view phi with
      | T.True -> Yes
      | T.False -> No
      | T.Not a -> tv_not (holds env a)
      | T.And ts ->
          List.fold_left (fun acc t -> tv_and acc (holds env t)) Yes ts
      | T.Or ts ->
          List.fold_left (fun acc t -> tv_or acc (holds env t)) No ts
      | T.Implies (a, b) -> tv_or (tv_not (holds env a)) (holds env b)
      | T.Iff (a, b) -> (
          match (holds env a, holds env b) with
          | Yes, Yes | No, No -> Yes
          | Yes, No | No, Yes -> No
          | _ -> Maybe)
      | T.Eq (a, b) -> holds_eq env a b
      | T.Le (a, b) -> (
          let d = lin_sub (lin_of a) (lin_of b) in
          match lin_cmp env d with
          | Some v ->
              if Itv.is_nonpos v.Val.itv then Yes
              else if Itv.is_pos v.Val.itv then No
              else Maybe
          | None -> Maybe)
      | T.Lt (a, b) -> (
          let d = lin_sub (lin_of a) (lin_of b) in
          match lin_cmp env d with
          | Some v ->
              if Itv.is_neg v.Val.itv then Yes
              else if Itv.is_nonneg v.Val.itv then No
              else Maybe
          | None -> Maybe)
      | T.Ite _ | T.Var _ | T.App _ | T.Pred _ | T.Int_lit _
      | T.Add _ | T.Sub _ | T.Mul _ ->
          Maybe)

(** [holds_eq env a b] — [holds env (T.eq a b)] for an [Eq] node,
    without the node: the verifier asks it of equalities it has not
    interned. *)
and holds_eq env a b =
  match env with
  | Bot -> Yes
  | Env _ when Smt.Sort.equal (T.sort_of a) Smt.Sort.Bool ->
      holds env (T.iff a b)
  | Env _ -> (
      let d = lin_sub (lin_of a) (lin_of b) in
      if d.coeffs = [] then if d.const = 0 then Yes else No
      else
        match lin_cmp env d with
        | Some v ->
            if Itv.is_zero v.Val.itv then Yes
            else if Itv.excludes_zero v.Val.itv || v.Val.par = Parity.Odd
            then No
            else Maybe
        | None -> Maybe)

(* The exception [holds] above creates: [lin_sub] can overflow when
   combining two already-normalized forms; treat as Maybe. *)
let overflowed = function Bot -> Yes | Env _ -> Maybe
let holds env phi = try holds env phi with C.Overflow -> overflowed env
let holds_eq env a b = try holds_eq env a b with C.Overflow -> overflowed env

(** Number of distinct atoms in the linear normal form of a
    comparison — the measure of how *relational* the formula is. A
    non-relational domain can only ever decide comparisons with at
    most one atom; callers use this to stay silent on [Maybe]
    verdicts the domain could never have decided. [None] when [phi]
    is not a comparison (or overflows normalization). *)
let comparison_atoms phi =
  match T.view phi with
  | T.Eq (a, b) | T.Le (a, b) | T.Lt (a, b) -> (
      try Some (List.length (lin_sub (lin_of a) (lin_of b)).coeffs)
      with C.Overflow -> None)
  | T.Not a -> (
      match T.view a with
      | T.Eq (x, y) | T.Le (x, y) | T.Lt (x, y) -> (
          try Some (List.length (lin_sub (lin_of x) (lin_of y)).coeffs)
          with C.Overflow -> None)
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Constraint propagation *)

(* Rounding division helpers (b <> 0). *)
let fdiv a b =
  let q = a / b and r = a mod b in
  if r <> 0 && r < 0 <> (b < 0) then q - 1 else q

let cdiv a b =
  let q = a / b and r = a mod b in
  if r <> 0 && r < 0 = (b < 0) then q + 1 else q

(* Divide an interval by a non-zero coefficient, rounding inward —
   the solution set of [c·x ∈ R] for integer x. A negative coefficient
   swaps the bounds *and* flips infinities. *)
let itv_div_inward (r : Itv.t) c =
  let lo, hi =
    if c > 0 then
      ( (match r.Itv.lo with
        | Itv.Fin n -> Itv.norm_lo (cdiv n c)
        | b -> b),
        match r.Itv.hi with
        | Itv.Fin n -> Itv.norm_hi (fdiv n c)
        | b -> b )
    else
      ( (match r.Itv.hi with
        | Itv.Fin n -> Itv.norm_lo (cdiv n c)
        | Itv.Pinf -> Itv.Ninf
        | Itv.Ninf -> Itv.Pinf),
        match r.Itv.lo with
        | Itv.Fin n -> Itv.norm_hi (fdiv n c)
        | Itv.Ninf -> Itv.Pinf
        | Itv.Pinf -> Itv.Ninf )
  in
  match (lo, hi) with
  | Itv.Pinf, _ | _, Itv.Ninf -> None
  | Itv.Fin l, Itv.Fin h when l > h -> None
  | lo, hi -> Some { Itv.lo; hi }

(* Refine every atom of the linear form [l] under the constraint
   [Σ cᵢ·atomᵢ + k ⋈ 0], where [⋈] is ≤ (le) or = (eq). For each atom
   x with coefficient c: c·x ∈ (bound − Σ others), divided inward. *)
let refine_lin ~eq (l : lin) m =
  let value_of (a, c) = Val.scale c (find m a) in
  let exception Empty in
  try
    let m =
      List.fold_left
        (fun m (x, c) ->
          let rest =
            List.fold_left
              (fun acc (y, cy) ->
                if T.equal x y then acc else Val.add acc (value_of (y, cy)))
              (Val.of_int l.const) l.coeffs
          in
          (* c·x = -rest (eq) or c·x ≤ -rest, i.e. c·x ∈ target. *)
          let neg_rest = Val.scale (-1) rest in
          let target =
            if eq then neg_rest.Val.itv
            else { Itv.lo = Itv.Ninf; hi = neg_rest.Val.itv.Itv.hi }
          in
          match itv_div_inward target c with
          | None -> raise Empty
          | Some itv -> (
              let refinement =
                {
                  Val.itv;
                  par =
                    (* c·x = v with c odd fixes x's parity from v's. *)
                    (if eq && c land 1 = 1 then neg_rest.Val.par
                     else Parity.Top);
                }
              in
              match Val.meet (find m x) refinement with
              | None -> raise Empty
              | Some v -> set m x v))
        m l.coeffs
    in
    Env m
  with Empty -> Bot

(** [assume φ env] — the strongest environment the domain can
    represent for [env ∧ φ]. Over-approximates: the result's
    concretization contains every model of [env] satisfying [φ]. *)
let rec assume (phi : T.t) (env : t) : t =
  match env with
  | Bot -> Bot
  | Env m -> (
      match holds env phi with
      | No -> Bot
      | Yes -> env
      | Maybe -> (
          match T.view phi with
          | T.And ts -> List.fold_left (fun e t -> assume t e) env ts
          | T.Or ts ->
              List.fold_left
                (fun acc t -> join acc (assume t env))
                Bot ts
          | T.Not a -> assume_not a env
          | T.Implies (a, b) ->
              join (assume_not a env) (assume b env)
          | T.Eq (a, b) when Smt.Sort.equal (T.sort_of a) Smt.Sort.Bool ->
              join
                (assume a (assume b env))
                (assume_not a (assume_not b env))
          | T.Eq (a, b) -> (
              try refine_lin ~eq:true (lin_sub (lin_of a) (lin_of b)) m
              with C.Overflow -> env)
          | T.Le (a, b) -> (
              try refine_lin ~eq:false (lin_sub (lin_of a) (lin_of b)) m
              with C.Overflow -> env)
          | T.Lt (a, b) -> (
              try
                refine_lin ~eq:false
                  (lin_add (lin_sub (lin_of a) (lin_of b)) (lin_const 1))
                  m
              with C.Overflow -> env)
          | _ -> env))

and assume_not (phi : T.t) (env : t) : t =
  match env with
  | Bot -> Bot
  | Env _ -> (
      match T.view phi with
      | T.Not a -> assume a env
      | T.And ts ->
          List.fold_left (fun acc t -> join acc (assume_not t env)) Bot ts
      | T.Or ts -> List.fold_left (fun e t -> assume_not t e) env ts
      | T.Le (a, b) -> assume (T.lt b a) env
      | T.Lt (a, b) -> assume (T.le b a) env
      | T.Implies (a, b) -> assume_not b (assume a env)
      | _ -> (
          (* No endpoint trimming on ≠: the imprecision is deliberate
             (and documented — it is what DA022's twin exercises). *)
          match holds env phi with Yes -> Bot | _ -> env))

(* ------------------------------------------------------------------ *)
(* Lattice structure *)

and join (a : t) (b : t) : t =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Env ma, Env mb ->
      Env
        (Tmap.merge
           (fun _ va vb ->
             match (va, vb) with
             | Some va, Some vb ->
                 let v = Val.join va vb in
                 if Val.is_top v then None else Some v
             | _ -> None)
           ma mb)

let widen (old : t) (next : t) : t =
  match (old, next) with
  | Bot, x | x, Bot -> x
  | Env mo, Env mn ->
      Env
        (Tmap.merge
           (fun _ vo vn ->
             match (vo, vn) with
             | Some vo, Some vn ->
                 let v = Val.widen vo vn in
                 if Val.is_top v then None else Some v
             | _ -> None)
           mo mn)

let leq (a : t) (b : t) : bool =
  match (a, b) with
  | Bot, _ -> true
  | Env _, Bot -> false
  | Env ma, Env mb ->
      Tmap.for_all (fun x vb -> Val.leq (find ma x) vb) mb

(** Constrained atoms and their values; [None] for [Bot]. *)
let bindings = function
  | Bot -> None
  | Env m -> Some (Tmap.bindings m)

(** [constrain env t v] — meet the value of atom [t] with [v]. Only
    meaningful when [t] is an atom of its own linear form. *)
let constrain (env : t) (atom : T.t) (v : Val.t) : t =
  match env with
  | Bot -> Bot
  | Env m -> (
      match Val.meet (find m atom) v with
      | None -> Bot
      | Some v -> Env (set m atom v))

(* ------------------------------------------------------------------ *)
(* Concretization membership (the QCheck soundness harness) *)

(** [satisfies ~lookup env] — does the valuation [lookup] (partial:
    [None] = unconstrained) lie in γ(env)? *)
let satisfies ~(lookup : T.t -> int option) (env : t) : bool =
  match env with
  | Bot -> false
  | Env m ->
      Tmap.for_all
        (fun a v -> match lookup a with None -> true | Some n -> Val.mem n v)
        m

let pp ppf = function
  | Bot -> Fmt.string ppf "⊥"
  | Env m ->
      if Tmap.is_empty m then Fmt.string ppf "⊤"
      else
        Fmt.pf ppf "{@[%a@]}"
          (Fmt.list ~sep:(Fmt.any ",@ ") (fun ppf (a, v) ->
               Fmt.pf ppf "%a ∈ %a" T.pp a Val.pp v))
          (Tmap.bindings m)
