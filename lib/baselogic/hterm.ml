(** Heap-dependent terms.

    The destabilized logic's pure assertions may *read the heap*: the
    term language is {!Smt.Term} extended with a reserved uninterpreted
    symbol [!deref] applied to a location term. Reusing the solver's
    term type means heap-independent formulas flow to the solver
    unchanged, and heap-dependent ones are compiled by the symbolic
    executor (each read replaced by the symbolic contents of a matching
    points-to chunk) before discharge.

    This module owns the reserved symbol and the analyses around it. *)

open Smt

let deref_symbol = "!deref"

(** [deref l] is the heap read [!l] as a term. *)
let deref (l : Term.t) : Term.t = Term.app deref_symbol [ l ]

(** All location terms read by [t], outermost first. A term is
    heap-dependent iff this is nonempty. *)
let rec reads acc (t : Term.t) : Term.t list =
  match Term.view t with
  | Term.App (f, [ l ]) when String.equal f deref_symbol ->
      l :: reads acc l
  | Term.Var _ | Term.Int_lit _ | Term.True | Term.False -> acc
  | Term.App (_, args) | Term.Pred (_, args) ->
      List.fold_left reads acc args
  | Term.Add (a, b) | Term.Sub (a, b) | Term.Mul (a, b) | Term.Eq (a, b)
  | Term.Le (a, b) | Term.Lt (a, b) | Term.Implies (a, b) | Term.Iff (a, b) ->
      reads (reads acc a) b
  | Term.Ite (c, a, b) -> reads (reads (reads acc c) a) b
  | Term.Not a -> reads acc a
  | Term.And ts | Term.Or ts -> List.fold_left reads acc ts

let heap_reads t = reads [] t
let heap_dependent t = heap_reads t <> []

(** Substitute heap reads: [resolve lookup t] replaces each [!l] by
    [lookup l] (innermost reads first, so nested reads like [!(!l)]
    resolve correctly). [lookup] returns [None] to leave a read in
    place. *)
let rec resolve (lookup : Term.t -> Term.t option) (t : Term.t) : Term.t =
  let go = resolve lookup in
  match Term.view t with
  | Term.App (f, [ l ]) when String.equal f deref_symbol -> (
      let l = go l in
      match lookup l with Some v -> v | None -> deref l)
  | Term.Var _ | Term.Int_lit _ | Term.True | Term.False -> t
  | Term.App (f, args) -> Term.app f (List.map go args)
  | Term.Pred (f, args) -> Term.pred f (List.map go args)
  | Term.Add (a, b) -> Term.add (go a) (go b)
  | Term.Sub (a, b) -> Term.sub (go a) (go b)
  | Term.Mul (a, b) -> Term.mul (go a) (go b)
  | Term.Ite (c, a, b) -> Term.ite (go c) (go a) (go b)
  | Term.Eq (a, b) -> Term.eq (go a) (go b)
  | Term.Le (a, b) -> Term.le (go a) (go b)
  | Term.Lt (a, b) -> Term.lt (go a) (go b)
  | Term.Not a -> Term.not_ (go a)
  | Term.And ts -> Term.and_ (List.map go ts)
  | Term.Or ts -> Term.or_ (List.map go ts)
  | Term.Implies (a, b) -> Term.implies (go a) (go b)
  | Term.Iff (a, b) -> Term.iff (go a) (go b)
