(** Symbolic camera elements.

    Assertions own ghost resources whose contents are *terms* (symbolic
    integers), not concrete camera elements — [own γ (● n ⋅ ◯ m)] with
    [n], [m] verification-time unknowns. Each constructor denotes an
    element of a camera from {!Camera}: [Excl] of [Excl int], [Agree]
    of [Agree int], [Frac_tok] of [Frac], [Auth_nat] of [Auth Nat_add],
    [Max_nat] of [Max_nat] and [Token] of [Excl unit].
    {!Semantics.eval_ghost_val} computes that element under a
    valuation.

    The functions below compute, symbolically, the facts the logic
    needs about ghost state: composition (for [own γ a ∗ own γ b ⊣⊢
    own γ (a⋅b)]), validity (for [own γ a ⊢ ✓ a]), inclusion and
    equality (for consuming a chunk), persistence, and frame-preserving
    updates (for the ghost-update rule). Composition and updates are
    partial: on shapes we cannot decide symbolically they return
    [None] and the caller must fall back to manual reasoning. The
    [ghost-val camera-*] QCheck properties in [test/test_baselogic.ml]
    check each of them against the camera's [valid], [op], [included],
    [pcore] and [Camera.Updates.brute_force] at random valuations. *)

open Stdx
open Smt

type t =
  | Excl of Term.t  (** exclusive ownership of an integer value *)
  | Agree of Term.t  (** duplicable agreement on an integer value *)
  | Frac_tok of Q.t  (** a fraction of an abstract token *)
  | Auth_nat of { auth : Term.t option; frag : Term.t }
      (** authoritative nat: optional [● n] plus [◯ m] contribution *)
  | Max_nat of Term.t  (** persistent lower-bound knowledge *)
  | Token  (** a one-shot exclusive token (unit exclusive) *)

let pp ppf = function
  | Excl t -> Fmt.pf ppf "excl %a" Term.pp t
  | Agree t -> Fmt.pf ppf "ag %a" Term.pp t
  | Frac_tok q -> Fmt.pf ppf "frac %a" Q.pp q
  | Auth_nat { auth = Some n; frag } ->
      Fmt.pf ppf "● %a ⋅ ◯ %a" Term.pp n Term.pp frag
  | Auth_nat { auth = None; frag } -> Fmt.pf ppf "◯ %a" Term.pp frag
  | Max_nat t -> Fmt.pf ppf "maxnat %a" Term.pp t
  | Token -> Fmt.string ppf "tok"

let equal a b =
  match (a, b) with
  | Excl x, Excl y | Agree x, Agree y | Max_nat x, Max_nat y -> Term.equal x y
  | Frac_tok p, Frac_tok q -> Q.equal p q
  | Auth_nat x, Auth_nat y ->
      Option.equal Term.equal x.auth y.auth && Term.equal x.frag y.frag
  | Token, Token -> true
  | _ -> false

(** Symbolic composition [a ⋅ b]. Returns the composite together with
    the pure fact the composition *adds* (e.g. agreement equates the
    two values). [None] when the composite is known invalid or the
    shape is out of symbolic reach. *)
let compose (a : t) (b : t) : (t * Term.t) option =
  match (a, b) with
  | Excl _, Excl _ | Token, Token -> None
  | Agree x, Agree y -> Some (Agree x, Term.eq x y)
  | Frac_tok p, Frac_tok q ->
      let s = Q.add p q in
      if Q.leq s Q.one then Some (Frac_tok s, Term.tru) else None
  | Auth_nat x, Auth_nat y -> (
      match (x.auth, y.auth) with
      | Some _, Some _ -> None
      | auth, None | None, auth ->
          Some
            ( Auth_nat { auth; frag = Term.add x.frag y.frag },
              Term.tru ))
  | Max_nat x, Max_nat y ->
      (* max is not a linear term; encode via ite. *)
      Some (Max_nat (Term.ite (Term.le x y) y x), Term.tru)
  | _ -> None

(** The pure fact implied by validity of [a]. *)
let valid_fact (a : t) : Term.t =
  match a with
  | Excl _ | Agree _ | Token -> Term.tru
  | Frac_tok q -> Term.bool (Q.gt q Q.zero && Q.leq q Q.one)
  | Auth_nat { auth = Some n; frag } ->
      Term.and_ [ Term.le (Term.int 0) frag; Term.le frag n ]
  | Auth_nat { auth = None; frag } -> Term.le (Term.int 0) frag
  | Max_nat t -> Term.le (Term.int 0) t

(** Is every element of this shape duplicable (its own core)? *)
let persistent = function
  | Agree _ | Max_nat _ -> true
  | Excl _ | Frac_tok _ | Auth_nat _ | Token -> false

(** The pure condition under which two symbolic elements are equal, or
    [None] when the shapes differ. *)
let eq_condition (a : t) (b : t) : Term.t option =
  match (a, b) with
  | Excl x, Excl y | Agree x, Agree y | Max_nat x, Max_nat y ->
      Some (Term.eq x y)
  | Frac_tok p, Frac_tok q -> if Q.equal p q then Some Term.tru else None
  | Auth_nat x, Auth_nat y -> (
      match (x.auth, y.auth) with
      | None, None -> Some (Term.eq x.frag y.frag)
      | Some n, Some n' ->
          Some (Term.and_ [ Term.eq n n'; Term.eq x.frag y.frag ])
      | _ -> None)
  | Token, Token -> Some Term.tru
  | _ -> None

(** The pure condition under which [goal ≼ chunk] (the chunk can be
    weakened to the goal in affine style), or [None] when the shapes
    are incompatible. *)
let sub_condition ~(goal : t) ~(chunk : t) : Term.t option =
  match (goal, chunk) with
  | Max_nat x, Max_nat y ->
      Some (Term.and_ [ Term.le (Term.int 0) x; Term.le x y ])
  | Auth_nat { auth = None; frag = m' }, Auth_nat { auth = _; frag = m } ->
      Some (Term.and_ [ Term.le (Term.int 0) m'; Term.le m' m ])
  | Frac_tok p, Frac_tok q ->
      if Q.leq p q then Some Term.tru else None
  | _ -> eq_condition goal chunk

(** Symbolic frame-preserving update [a ~~> b]: returns the side
    condition under which the update is frame-preserving, or [None] if
    the shape pair is not a recognized update pattern. *)
let update (a : t) (b : t) : Term.t option =
  match (a, b) with
  | Excl _, Excl _ -> Some Term.tru
  | Auth_nat { auth = Some n; frag = m }, Auth_nat { auth = Some n'; frag = m' }
    ->
      (* Local update: both sides change by the same delta, and the new
         fragment stays a valid contribution. *)
      Some
        (Term.and_
           [
             Term.eq (Term.sub n' n) (Term.sub m' m);
             Term.le (Term.int 0) m';
             Term.le m' n';
           ])
  | Max_nat x, Max_nat y ->
      (* Monotone bump. *)
      Some (Term.le x y)
  | _ -> None
