(** The quantifier-free term language of the solver, hash-consed.

    Every term is interned in a process-global pool: structurally
    equal terms are physically equal, so {!equal} is [(==)], {!hash}
    and {!compare} are O(1) on the interned tag, and {!size} is a
    memoized field. Smart constructors perform the same light
    simplification as before (constant folding, flattening, double
    negation) and then intern; callers build terms naively.

    Invariants (see DESIGN.md §11):
    - [tag] is process-local: allocated from a global counter at
      intern time, never stable across runs. Use it for memo tables
      and ordering *within* a process only.
    - The pool is shared by all domains (terms cross domain
      boundaries in the parallel engine), so interning takes a
      per-shard mutex around a weak hash set; dropped terms are
      reclaimed by the GC. *)

type t = {
  node : node;
  tag : int;  (** unique intern id — process-local *)
  hkey : int;  (** memoized structural hash *)
  tsize : int;  (** memoized constructor count *)
}

and node =
  | Var of string * Sort.t
  | Int_lit of int
  | True
  | False
  | App of string * t list  (** uninterpreted function, int-sorted result *)
  | Pred of string * t list  (** uninterpreted predicate, bool-sorted *)
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Ite of t * t * t  (** condition, then, else — branches int-sorted *)
  | Eq of t * t
  | Le of t * t
  | Lt of t * t
  | Not of t
  | And of t list
  | Or of t list
  | Implies of t * t
  | Iff of t * t

let[@inline] view t = t.node
let[@inline] id t = t.tag
let[@inline] hash t = t.hkey
let[@inline] size t = t.tsize
let[@inline] equal (a : t) (b : t) = a == b
let compare (a : t) (b : t) = Int.compare a.tag b.tag

(* ------------------------------------------------------------------ *)
(* The intern pool *)

(* Structural hash of a node, one level deep: children contribute
   their memoized [hkey], so hashing is O(arity) and agrees with
   shallow equality below. *)
let hash_node node =
  let cmb h x = ((h * 0x01000193) lxor x) land max_int in
  let str s = Hashtbl.hash (s : string) in
  match node with
  | Var (x, Sort.Int) -> cmb 3 (str x)
  | Var (x, Sort.Bool) -> cmb 5 (str x)
  | Int_lit n -> cmb 7 (n land max_int)
  | True -> 11
  | False -> 13
  | App (f, args) ->
      List.fold_left (fun h a -> cmb h a.hkey) (cmb 17 (str f)) args
  | Pred (f, args) ->
      List.fold_left (fun h a -> cmb h a.hkey) (cmb 19 (str f)) args
  | Add (a, b) -> cmb (cmb 23 a.hkey) b.hkey
  | Sub (a, b) -> cmb (cmb 29 a.hkey) b.hkey
  | Mul (a, b) -> cmb (cmb 31 a.hkey) b.hkey
  | Ite (c, a, b) -> cmb (cmb (cmb 37 c.hkey) a.hkey) b.hkey
  | Eq (a, b) -> cmb (cmb 41 a.hkey) b.hkey
  | Le (a, b) -> cmb (cmb 43 a.hkey) b.hkey
  | Lt (a, b) -> cmb (cmb 47 a.hkey) b.hkey
  | Not a -> cmb 53 a.hkey
  | And ts -> List.fold_left (fun h a -> cmb h a.hkey) 59 ts
  | Or ts -> List.fold_left (fun h a -> cmb h a.hkey) 61 ts
  | Implies (a, b) -> cmb (cmb 67 a.hkey) b.hkey
  | Iff (a, b) -> cmb (cmb 71 a.hkey) b.hkey

(* Shallow structural equality: children are compared with [==],
   which is sound because they are already interned. *)
let equal_node (a : node) (b : node) =
  match (a, b) with
  | Var (x, s), Var (y, s') -> String.equal x y && Sort.equal s s'
  | Int_lit m, Int_lit n -> m = n
  | True, True | False, False -> true
  | App (f, xs), App (g, ys) | Pred (f, xs), Pred (g, ys) ->
      String.equal f g && List.equal ( == ) xs ys
  | Add (a1, a2), Add (b1, b2)
  | Sub (a1, a2), Sub (b1, b2)
  | Mul (a1, a2), Mul (b1, b2)
  | Eq (a1, a2), Eq (b1, b2)
  | Le (a1, a2), Le (b1, b2)
  | Lt (a1, a2), Lt (b1, b2)
  | Implies (a1, a2), Implies (b1, b2)
  | Iff (a1, a2), Iff (b1, b2) ->
      a1 == b1 && a2 == b2
  | Ite (c1, a1, b1), Ite (c2, a2, b2) -> c1 == c2 && a1 == a2 && b1 == b2
  | Not a, Not b -> a == b
  | And xs, And ys | Or xs, Or ys -> List.equal ( == ) xs ys
  | _ -> false

let size_node = function
  | Var _ | Int_lit _ | True | False -> 1
  | App (_, args) | Pred (_, args) ->
      List.fold_left (fun acc a -> acc + a.tsize) 1 args
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Eq (a, b) | Le (a, b) | Lt (a, b)
  | Implies (a, b) | Iff (a, b) ->
      1 + a.tsize + b.tsize
  | Ite (c, a, b) -> 1 + c.tsize + a.tsize + b.tsize
  | Not a -> 1 + a.tsize
  | And ts | Or ts -> List.fold_left (fun acc a -> acc + a.tsize) 1 ts

module Pool = Weak.Make (struct
  type nonrec t = t

  let equal a b = equal_node a.node b.node
  let hash t = t.hkey
end)

(* The pool is global (terms flow between worker domains), sharded to
   keep the mutexes short and mostly uncontended. Hit/miss counters
   are plain ints mutated under the shard mutex — cheaper than
   atomics on the hit path, and exact because the lock is held. *)
type shard = {
  mutex : Mutex.t;
  pool : Pool.t;
  mutable hits : int;
  mutable misses : int;
}

let n_shards = 64

let shards =
  Array.init n_shards (fun _ ->
      { mutex = Mutex.create (); pool = Pool.create 1024; hits = 0; misses = 0 })

let next_tag = Atomic.make 0

(* Lock-free direct-mapped cache in front of the weak pool: a plain
   array indexed by hash, each slot holding the last interned term
   with that hash residue. Races are benign — slots only ever hold
   canonical (pool-resident) terms, a stale read just falls through
   to the locked pool, and an overwrite loses nothing but a future
   shortcut. This keeps the common rebuild-an-existing-term path at
   one hash + one array read, with no mutex and no weak-set probe.

   Slots hold the term itself, not a [Some t] box: the array lives in
   the major heap, so every box stored into it would be promoted at
   the next minor collection along with its term. An empty slot holds
   [vacant], whose negative tag no interned term has; the [tag >= 0]
   test keeps it from ever matching (its node is [True], which
   [tru] itself interns). *)
let cache_bits = 16
let vacant = { node = True; tag = -1; hkey = 0; tsize = 0 }
let cache : t array = Array.make (1 lsl cache_bits) vacant

(* Racy on purpose: a lost increment under contention skews a
   diagnostic counter, not a verdict; an atomic here would tax every
   constructor call. *)
let cache_hits = ref 0

let intern node =
  let hkey = hash_node node in
  let slot = hkey land ((1 lsl cache_bits) - 1) in
  let t = Array.unsafe_get cache slot in
  if t.tag >= 0 && equal_node t.node node then begin
    incr cache_hits;
    t
  end
  else begin
    (* The lookup key borrows the node; tag and size are only
       computed (and an id only consumed) when the term is new. *)
    let probe = { node; tag = -1; hkey; tsize = 0 } in
    let shard = shards.(hkey lsr cache_bits land (n_shards - 1)) in
    Mutex.lock shard.mutex;
    let t =
      match Pool.find_opt shard.pool probe with
      | Some t ->
          shard.hits <- shard.hits + 1;
          t
      | None ->
          let t =
            {
              node;
              tag = Atomic.fetch_and_add next_tag 1;
              hkey;
              tsize = size_node node;
            }
          in
          Pool.add shard.pool t;
          shard.misses <- shard.misses + 1;
          t
    in
    Mutex.unlock shard.mutex;
    Array.unsafe_set cache slot t;
    t
  end

type pool_stats = { pool_size : int; pool_hits : int; pool_misses : int }

(** Pool occupancy and hit rate since process start. [pool_size]
    counts live (not yet collected) interned terms. *)
let pool_stats () =
  Array.fold_left
    (fun acc s ->
      {
        pool_size = acc.pool_size + Pool.count s.pool;
        pool_hits = acc.pool_hits + s.hits;
        pool_misses = acc.pool_misses + s.misses;
      })
    { pool_size = 0; pool_hits = !cache_hits; pool_misses = 0 }
    shards

(* ------------------------------------------------------------------ *)
(* Printing *)

let rec pp ppf t =
  match t.node with
  | Var (x, _) -> Fmt.string ppf x
  | Int_lit n -> Fmt.int ppf n
  | True -> Fmt.string ppf "true"
  | False -> Fmt.string ppf "false"
  | App (f, args) | Pred (f, args) ->
      Fmt.pf ppf "%s(%a)" f (Fmt.list ~sep:(Fmt.any ",@ ") pp) args
  | Add (a, b) -> Fmt.pf ppf "(%a + %a)" pp a pp b
  | Sub (a, b) -> Fmt.pf ppf "(%a - %a)" pp a pp b
  | Mul (a, b) -> Fmt.pf ppf "(%a * %a)" pp a pp b
  | Ite (c, a, b) -> Fmt.pf ppf "(ite %a %a %a)" pp c pp a pp b
  | Eq (a, b) -> Fmt.pf ppf "(%a = %a)" pp a pp b
  | Le (a, b) -> Fmt.pf ppf "(%a <= %a)" pp a pp b
  | Lt (a, b) -> Fmt.pf ppf "(%a < %a)" pp a pp b
  | Not a -> Fmt.pf ppf "¬%a" pp a
  | And ts -> Fmt.pf ppf "(@[%a@])" (Fmt.list ~sep:(Fmt.any " ∧@ ") pp) ts
  | Or ts -> Fmt.pf ppf "(@[%a@])" (Fmt.list ~sep:(Fmt.any " ∨@ ") pp) ts
  | Implies (a, b) -> Fmt.pf ppf "(%a → %a)" pp a pp b
  | Iff (a, b) -> Fmt.pf ppf "(%a ↔ %a)" pp a pp b

let to_string t = Fmt.str "%a" pp t

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                  *)

let var ?(sort = Sort.Int) x = intern (Var (x, sort))
let bvar x = intern (Var (x, Sort.Bool))
let int n = intern (Int_lit n)
let tru = intern True
let fls = intern False
let app f args = intern (App (f, args))
let pred f args = intern (Pred (f, args))

(* Two literals fold only to an exact result ({!Stdx.Checked}); one a
   native [int] cannot hold leaves the node symbolic, and the theory's
   exact arithmetic refuses it later instead of seeing a wrapped
   literal. *)
let fold_lit op m n node =
  match op m n with r -> int r | exception Stdx.Checked.Overflow -> intern node

let add a b =
  match (a.node, b.node) with
  | Int_lit 0, _ -> b
  | _, Int_lit 0 -> a
  | Int_lit m, Int_lit n -> fold_lit Stdx.Checked.add m n (Add (a, b))
  | _ -> intern (Add (a, b))

let sub a b =
  match (a.node, b.node) with
  | _, Int_lit 0 -> a
  | Int_lit m, Int_lit n -> fold_lit Stdx.Checked.sub m n (Sub (a, b))
  | _ -> intern (Sub (a, b))

let mul a b =
  match (a.node, b.node) with
  | Int_lit 0, _ | _, Int_lit 0 -> int 0
  | Int_lit 1, _ -> b
  | _, Int_lit 1 -> a
  | Int_lit m, Int_lit n -> fold_lit Stdx.Checked.mul m n (Mul (a, b))
  | _ -> intern (Mul (a, b))

let neg t = sub (int 0) t

let not_ t =
  match t.node with
  | True -> fls
  | False -> tru
  | Not u -> u
  | _ -> intern (Not t)

let and_ ts =
  let ts =
    List.concat_map
      (fun t -> match t.node with And xs -> xs | True -> [] | _ -> [ t ])
      ts
  in
  if List.exists (fun t -> match t.node with False -> true | _ -> false) ts
  then fls
  else match ts with [] -> tru | [ t ] -> t | ts -> intern (And ts)

let or_ ts =
  let ts =
    List.concat_map
      (fun t -> match t.node with Or xs -> xs | False -> [] | _ -> [ t ])
      ts
  in
  if List.exists (fun t -> match t.node with True -> true | _ -> false) ts
  then tru
  else match ts with [] -> fls | [ t ] -> t | ts -> intern (Or ts)

let implies a b =
  match (a.node, b.node) with
  | True, _ -> b
  | False, _ -> tru
  | _, True -> tru
  | _, False -> not_ a
  | _ -> intern (Implies (a, b))

let iff a b =
  match (a.node, b.node) with
  | True, _ -> b
  | _, True -> a
  | False, _ -> not_ b
  | _, False -> not_ a
  | _ -> if a == b then tru else intern (Iff (a, b))

(** Does [eq a b] build the node [Eq (a, b)]? Otherwise it folds: two
    literals, a boolean constant side, or the same term twice. *)
let eq_is_node a b =
  a != b
  &&
  match (a.node, b.node) with
  | Int_lit _, Int_lit _ | (True | False), _ | _, (True | False) -> false
  | _ -> true

let eq a b =
  if eq_is_node a b then intern (Eq (a, b))
  else
    match (a.node, b.node) with
    | Int_lit m, Int_lit n -> if m = n then tru else fls
    | True, _ -> b
    | _, True -> a
    | False, _ -> not_ b
    | _, False -> not_ a
    | _ -> tru (* a == b *)

let le a b =
  match (a.node, b.node) with
  | Int_lit m, Int_lit n -> if m <= n then tru else fls
  | _ -> if a == b then tru else intern (Le (a, b))

let lt a b =
  match (a.node, b.node) with
  | Int_lit m, Int_lit n -> if m < n then tru else fls
  | _ -> if a == b then fls else intern (Lt (a, b))

let ge a b = le b a
let gt a b = lt b a
let neq a b = not_ (eq a b)

let ite c a b =
  match c.node with True -> a | False -> b | _ -> intern (Ite (c, a, b))

let bool b = if b then tru else fls

(* ------------------------------------------------------------------ *)

let sort_of t =
  match t.node with
  | Var (_, s) -> s
  | Int_lit _ | App _ | Add _ | Sub _ | Mul _ | Ite _ -> Sort.Int
  | True | False | Pred _ | Eq _ | Le _ | Lt _ | Not _ | And _ | Or _
  | Implies _ | Iff _ ->
      Sort.Bool

let rec free_vars acc t =
  match t.node with
  | Var (x, s) -> (x, s) :: acc
  | Int_lit _ | True | False -> acc
  | App (_, args) | Pred (_, args) -> List.fold_left free_vars acc args
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Eq (a, b) | Le (a, b) | Lt (a, b)
  | Implies (a, b) | Iff (a, b) ->
      free_vars (free_vars acc a) b
  | Ite (c, a, b) -> free_vars (free_vars (free_vars acc c) a) b
  | Not a -> free_vars acc a
  | And ts | Or ts -> List.fold_left free_vars acc ts

let vars t = free_vars [] t |> List.sort_uniq Stdlib.compare

(** [occurs x t]: does a variable named [x], of either sort, occur in
    [t]? The answer of [List.mem_assoc x (vars t)], with no list
    built. *)
let rec occurs x t =
  match t.node with
  | Var (y, _) -> String.equal x y
  | Int_lit _ | True | False -> false
  | App (_, ts) | Pred (_, ts) | And ts | Or ts -> occurs_any x ts
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Eq (a, b) | Le (a, b) | Lt (a, b)
  | Implies (a, b) | Iff (a, b) ->
      occurs x a || occurs x b
  | Ite (c, a, b) -> occurs x c || occurs x a || occurs x b
  | Not a -> occurs x a

and occurs_any x = function
  | [] -> false
  | t :: ts -> occurs x t || occurs_any x ts

(** Capture-free substitution of variables by terms (our terms have no
    binders, so plain structural replacement is capture-free).

    Physical sharing makes the untouched case free: when no child
    changed, the original node is returned as-is — no re-interning,
    no allocation — so substitution costs O(spine touched), not
    O(size), on the mostly-unchanged formulas the verifier feeds it. *)
let rec subst map t =
  let share1 rebuild a a' = if a' == a then t else rebuild a' in
  let share2 rebuild a b a' b' =
    if a' == a && b' == b then t else rebuild a' b'
  in
  let sharen rebuild ts ts' =
    if List.for_all2 ( == ) ts ts' then t else rebuild ts'
  in
  match t.node with
  | Var (x, _) -> ( match Stdx.Smap.find_opt x map with Some u -> u | None -> t)
  | Int_lit _ | True | False -> t
  | App (f, args) -> sharen (app f) args (List.map (subst map) args)
  | Pred (f, args) -> sharen (pred f) args (List.map (subst map) args)
  | Add (a, b) -> share2 add a b (subst map a) (subst map b)
  | Sub (a, b) -> share2 sub a b (subst map a) (subst map b)
  | Mul (a, b) -> share2 mul a b (subst map a) (subst map b)
  | Ite (c, a, b) ->
      let c' = subst map c and a' = subst map a and b' = subst map b in
      if c' == c && a' == a && b' == b then t else ite c' a' b'
  | Eq (a, b) -> share2 eq a b (subst map a) (subst map b)
  | Le (a, b) -> share2 le a b (subst map a) (subst map b)
  | Lt (a, b) -> share2 lt a b (subst map a) (subst map b)
  | Not a -> share1 not_ a (subst map a)
  | And ts -> sharen and_ ts (List.map (subst map) ts)
  | Or ts -> sharen or_ ts (List.map (subst map) ts)
  | Implies (a, b) -> share2 implies a b (subst map a) (subst map b)
  | Iff (a, b) -> share2 iff a b (subst map a) (subst map b)

(** Evaluate a closed-enough term under a valuation. Used by the model
    checker in tests and for counterexample reporting. Unknown
    variables and uninterpreted applications evaluate via [on_app]. *)
let rec eval ~(env : int Stdx.Smap.t)
    ?(on_app = fun _ _ -> None) (t : t) : int option =
  let open Option in
  let int_of t = eval ~env ~on_app t in
  let both f a b =
    bind (int_of a) (fun x ->
        bind (int_of b) (fun y ->
            try Some (f x y) with Stdx.Checked.Overflow -> None))
  in
  match t.node with
  | Var (x, _) -> Stdx.Smap.find_opt x env
  | Int_lit n -> Some n
  | True -> Some 1
  | False -> Some 0
  | App (f, args) | Pred (f, args) ->
      let vals = List.filter_map int_of args in
      if List.length vals = List.length args then on_app f vals else None
  | Add (a, b) -> both Stdx.Checked.add a b
  | Sub (a, b) -> both Stdx.Checked.sub a b
  | Mul (a, b) -> both Stdx.Checked.mul a b
  | Ite (c, a, b) ->
      bind (int_of c) (fun c -> if c <> 0 then int_of a else int_of b)
  | Eq (a, b) -> both (fun x y -> if x = y then 1 else 0) a b
  | Le (a, b) -> both (fun x y -> if x <= y then 1 else 0) a b
  | Lt (a, b) -> both (fun x y -> if x < y then 1 else 0) a b
  | Not a -> map (fun x -> 1 - x) (int_of a)
  | And ts ->
      List.fold_left
        (fun acc t -> bind acc (fun a -> map (fun b -> min a b) (int_of t)))
        (Some 1) ts
  | Or ts ->
      List.fold_left
        (fun acc t -> bind acc (fun a -> map (fun b -> max a b) (int_of t)))
        (Some 0) ts
  | Implies (a, b) -> both (fun x y -> if x <> 0 && y = 0 then 0 else 1) a b
  | Iff (a, b) ->
      both (fun x y -> if (x <> 0) = (y <> 0) then 1 else 0) a b

let eval_bool ~env ?on_app t =
  match eval ~env ?on_app t with
  | Some n -> Some (n <> 0)
  | None -> None
